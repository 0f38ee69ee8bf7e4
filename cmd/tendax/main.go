// Command tendax is the TeNDaX command-line client: create, list, edit and
// inspect documents on a running tendaxd, or follow a document live.
//
// Usage:
//
//	tendax -addr host:port -user alice [-password pw] <command> [args]
//
// Commands:
//
//	create <name>                  create a document, print its ID
//	list                           list documents
//	cat <docID>                    print a document's text
//	append <docID> <text>          append text
//	insert <docID> <pos> <text>    insert text at position
//	delete <docID> <pos> <n>       delete n characters
//	undo <docID> [local|global]    undo
//	redo <docID> [local|global]    redo
//	version <docID> <name>         snapshot a version
//	versions <docID>               list versions
//	history <docID>                print the editing history
//	search <term>...               ranked full-text search
//	sources <docID> [<pos> <n>]    where the text (or a range of it) was copied from
//	follow <docID>                 stream live events until interrupted
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"tendax/internal/client"
	"tendax/internal/protocol"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7468", "server address")
	user := flag.String("user", "demo", "user name")
	password := flag.String("password", "", "password (when the server enforces auth)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	c, err := client.Dial(*addr,
		client.WithUser(*user), client.WithPassword(*password))
	if err != nil {
		log.Fatalf("tendax: dial: %v", err)
	}
	defer c.Close()

	if err := run(c, args); err != nil {
		log.Fatalf("tendax: %v", err)
	}
}

func run(c *client.Client, args []string) error {
	cmd := args[0]
	rest := args[1:]
	switch cmd {
	case "create":
		need(rest, 1)
		id, err := c.CreateDocument(rest[0])
		if err != nil {
			return err
		}
		fmt.Println(id)
		return nil
	case "list":
		infos, err := c.ListDocuments()
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-24s %-10s %8s %s\n", "ID", "NAME", "CREATOR", "SIZE", "STATE")
		for _, in := range infos {
			fmt.Printf("%-8d %-24s %-10s %8d %s\n", in.ID, in.Name, in.Creator, in.Size, in.State)
		}
		return nil
	case "cat":
		d, err := open(c, rest, 1)
		if err != nil {
			return err
		}
		fmt.Println(d.Text())
		return nil
	case "append":
		d, err := open(c, rest, 2)
		if err != nil {
			return err
		}
		return d.Append(rest[1])
	case "insert":
		d, err := open(c, rest, 3)
		if err != nil {
			return err
		}
		pos, err := strconv.Atoi(rest[1])
		if err != nil {
			return err
		}
		return d.Insert(pos, rest[2])
	case "delete":
		need(rest, 3)
		pos, err := strconv.Atoi(rest[1])
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(rest[2])
		if err != nil {
			return err
		}
		d, err := open(c, rest, 3)
		if err != nil {
			return err
		}
		return d.Delete(pos, n)
	case "undo", "redo":
		d, err := open(c, rest, 1)
		if err != nil {
			return err
		}
		scope := protocol.ScopeLocal
		if len(rest) > 1 {
			scope = rest[1]
		}
		if cmd == "undo" {
			return d.Undo(scope)
		}
		return d.Redo(scope)
	case "version":
		d, err := open(c, rest, 2)
		if err != nil {
			return err
		}
		return d.CreateVersion(rest[1])
	case "versions":
		d, err := open(c, rest, 1)
		if err != nil {
			return err
		}
		vs, err := d.Versions()
		if err != nil {
			return err
		}
		for _, v := range vs {
			fmt.Printf("%-8d %-16s %-10s %s\n", v.ID, v.Name, v.Author,
				time.Unix(0, v.AtNS).Format(time.RFC3339))
		}
		return nil
	case "history":
		d, err := open(c, rest, 1)
		if err != nil {
			return err
		}
		hist, err := d.History()
		if err != nil {
			return err
		}
		for _, h := range hist {
			undone := ""
			if h.Undone {
				undone = " (undone)"
			}
			fmt.Printf("%-8d %-10s %-8s %4d chars%s\n", h.ID, h.User, h.Kind, h.Chars, undone)
		}
		return nil
	case "search":
		if len(rest) == 0 {
			return fmt.Errorf("search needs at least one term")
		}
		hits, err := c.Search(client.SearchQuery{Terms: rest, Limit: 20})
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-24s %10s  %s\n", "ID", "NAME", "SCORE", "SNIPPET")
		for _, h := range hits {
			fmt.Printf("%-8d %-24s %10.4f  %s\n", h.Doc.ID, h.Doc.Name, h.Score, h.Snippet)
		}
		return nil
	case "sources":
		d, err := open(c, rest, 1)
		if err != nil {
			return err
		}
		pos, n := 0, d.Len()
		if len(rest) >= 3 {
			if pos, err = strconv.Atoi(rest[1]); err != nil {
				return err
			}
			if n, err = strconv.Atoi(rest[2]); err != nil {
				return err
			}
		}
		refs, err := c.Provenance(uint64(d.ID()), pos, n)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-24s %8s %8s %6s\n", "SRC", "NAME", "FROM", "TO", "CHARS")
		for _, r := range refs {
			name := r.SrcName
			if r.SrcDoc == 0 {
				name = "(typed here)"
			}
			fmt.Printf("%-10d %-24s %8d %8d %6d\n", r.SrcDoc, name, r.From, r.To, r.Chars)
		}
		return nil
	case "follow":
		d, err := open(c, rest, 1)
		if err != nil {
			return err
		}
		fmt.Printf("--- %d chars ---\n%s\n--- following (ctrl-c to stop) ---\n", d.Len(), d.Text())
		d.Watch(func(ev protocol.Event) {
			fmt.Printf("[%s] %s %s pos=%d n=%d %q\n",
				time.Unix(0, ev.AtNS).Format("15:04:05.000"), ev.User, ev.Kind, ev.Pos, ev.N, ev.Text)
		})
		select {} // run until interrupted
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func open(c *client.Client, rest []string, want int) (*client.Doc, error) {
	need(rest, want)
	id, err := strconv.ParseUint(rest[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad document ID %q", rest[0])
	}
	return c.Open(id)
}

func need(rest []string, n int) {
	if len(rest) < n {
		log.Fatalf("tendax: missing arguments (need %d)", n)
	}
}
