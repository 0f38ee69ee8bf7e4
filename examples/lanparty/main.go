// LAN-party: the paper's demonstration scenario — one TeNDaX server, many
// editors connected over real TCP, all typing into the same document
// concurrently, with live propagation, awareness, collaborative layouting
// and global undo.
//
// The players type through protocol-v3 sessions: keystrokes coalesce into
// ID-anchored batches, acknowledgements are pipelined, and each player's
// text chains after their own previous insert — so no amount of
// concurrent typing can tear a player's lines apart, and nobody's typing
// rate is bounded by round-trips.
//
// Run with: go run ./examples/lanparty [-editors 6] [-bursts 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/protocol"
	"tendax/internal/server"
)

func main() {
	editors := flag.Int("editors", 6, "number of concurrent editors")
	bursts := flag.Int("bursts", 8, "text bursts each editor types")
	flag.Parse()

	// Start the server on a loopback port (in-memory database).
	database, err := db.Open(db.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer database.Close()
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	fmt.Printf("server on %s\n", addr)

	// The host creates the shared document.
	host, err := client.Dial(addr.String(), client.WithUser("host"))
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()
	docID, err := host.CreateDocument("lan-party")
	must(err)
	hostDoc, err := host.Open(docID)
	must(err)
	must(hostDoc.Insert(0, "== LAN party minutes ==\n"))

	// Players join from their own connections ("different machines").
	var wg sync.WaitGroup
	for i := 0; i < *editors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("player%d", i)
			c, err := client.Dial(addr.String(), client.WithUser(user))
			if err != nil {
				log.Printf("%s: %v", user, err)
				return
			}
			defer c.Close()
			d, err := c.Open(docID)
			if err != nil {
				log.Printf("%s: %v", user, err)
				return
			}
			// A v3 session per player: typing is coalesced and pipelined;
			// Close drains the durable acknowledgements.
			s, err := d.Session()
			if err != nil {
				log.Printf("%s: %v", user, err)
				return
			}
			for j := 0; j < *bursts; j++ {
				if err := s.Type(fmt.Sprintf("[%s writes line %d]\n", user, j)); err != nil {
					log.Printf("%s: %v", user, err)
					return
				}
			}
			if err := s.Close(); err != nil {
				log.Printf("%s: %v", user, err)
			}
		}(i)
	}
	wg.Wait()

	// Everything every player typed is now one consistent document; wait
	// for the host replica to catch up with all pushes.
	final, err := hostDoc.Read()
	must2(err)
	fmt.Printf("\n--- document after the party (%d chars) ---\n", len([]rune(final)))
	fmt.Println(truncate(final, 500))

	// Awareness: who is present.
	present, err := hostDoc.Presence()
	must2(err)
	fmt.Printf("present: %d users\n", len(present))

	// The paper's *global* undo: the very last committed operation —
	// whichever player made it — is reverted by the host. With sessions,
	// one operation is one coalesced typing burst.
	before := len([]rune(final))
	must2(hostDoc.Undo(protocol.ScopeGlobal))
	text, err := hostDoc.Read()
	must2(err)
	fmt.Printf("global undo reverted the last player's burst: %d -> %d chars\n",
		before, len([]rune(text)))

	// Collaborative layout: the host makes the title a heading.
	must2(hostDoc.Layout(0, 23, "heading", "1"))
	fmt.Println("host applied heading layout to the title")

	// The editing history shows every player's transactions.
	hist, err := hostDoc.History()
	must2(err)
	byUser := map[string]int{}
	for _, h := range hist {
		byUser[h.User]++
	}
	fmt.Printf("history: %d ops total, per user: %v\n", len(hist), byUser)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must2(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func truncate(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n]) + fmt.Sprintf("... (%d more chars)", len(r)-n)
}
