// Quickstart: the TeNDaX engine embedded in a single process — create a
// document, edit it as database transactions, apply layout, undo, travel in
// time, and inspect the automatically gathered metadata.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tendax/internal/core"
	"tendax/internal/db"
)

func main() {
	// An empty Dir means a fully in-memory database; point it at a
	// directory to get a durable store with write-ahead logging.
	database, err := db.Open(db.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer database.Close()

	eng, err := core.NewEngine(database, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Create and edit: every call below is one database transaction.
	doc, err := eng.CreateDocument("alice", "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	must(doc.InsertText("alice", 0, "TeNDaX stores text natively in a database."))
	must(doc.InsertText("bob", 7, "— a Text Native Database eXtension — "))
	fmt.Printf("text:     %s\n", doc.Text())

	// 2. Character-level metadata is gathered automatically.
	meta, err := doc.CharMetaAt(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("char[8]:  %q typed by %s at %s\n", meta.Rune, meta.Author,
		meta.Created.Format("15:04:05.000"))

	// 3. Layout spans anchor to character identities, not offsets.
	if _, err := doc.ApplyLayout("alice", 0, 6, core.SpanBold, "true"); err != nil {
		log.Fatal(err)
	}
	spans, _ := doc.Spans()
	from, to := doc.SpanRange(spans[0])
	fmt.Printf("span:     %s over [%d,%d)\n", spans[0].Kind, from, to)

	// 4. Versions are snapshots by timestamp — reconstruction is a filter
	// over the stable character chain.
	v1, err := doc.CreateVersion("alice", "v1")
	if err != nil {
		log.Fatal(err)
	}
	must(doc.DeleteRange("alice", 0, 7))
	fmt.Printf("now:      %s\n", doc.Text())
	old, _ := doc.VersionText(v1.ID)
	fmt.Printf("v1:       %s\n", old)

	// 5. Local undo reverts alice's delete even though bob edited earlier.
	if _, err := doc.UndoLocal("alice"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("undone:   %s\n", doc.Text())

	// 6. Edit batches (the protocol-v3 hot path, embedded form): several
	// ops — ID-anchored inserts, deletes by identity, layout over the
	// batch's own text — commit as ONE transaction with ONE history-
	// preserving awareness event. Over the wire, client sessions coalesce
	// keystrokes into exactly these batches.
	results, err := doc.Apply("alice", []core.EditOp{
		{Kind: core.EditInsert, Pos: doc.Len(), Text: " Every keystroke is a row"},
		{Kind: core.EditInsert, AnchorPrev: true, Text: "; every batch is a transaction."},
		{Kind: core.EditLayout, AnchorPrev: true, Span: core.SpanItalic, Value: "true"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch:    %d ops, first inserted char id %v\n", len(results), results[0].IDs[0])
	fmt.Printf("text:     %s\n", doc.Text())

	// 7. Document metadata for dynamic folders, mining and search.
	info := doc.Info()
	fmt.Printf("metadata: creator=%s size=%d authors=%v state=%s\n",
		info.Creator, info.Size, info.Authors, info.State)

	hist := doc.History()
	fmt.Printf("history:  %d operations logged\n", len(hist))
	for _, op := range hist {
		fmt.Printf("  %-7s by %-6s (%d chars)\n", op.Kind, op.User, op.Chars)
	}
}

func must(_ interface{}, err error) {
	if err != nil {
		log.Fatal(err)
	}
}
