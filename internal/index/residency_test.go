package index_test

import (
	"runtime"
	"strings"
	"testing"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/index"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// TestResidencyBytesPerChar gates what a node holds resident per stored
// character of a reopened corpus (20 documents of 10k characters, typed
// in 500-rune appends), as settled heap above what the stored pages and
// log themselves take, at four points: after db.OpenWith and
// core.NewEngine (the database's own indexes, rebuilt by a heap scan),
// after ListDocuments (which opens every document), after index.Open (the
// indexer's prime) and after one edit in every document (which gives each
// document its op ring on the bus). Each limit is the measured value plus
// 10 %: 2.9, 23.1, 42.1 and 41.8 B. While rows were written with 8-byte
// ints and 4-byte lengths, so the buffer pool read more pages for the
// same rows, they read 3.6, 23.8, 42.8 and 42.4 B. While the op-log cache
// held every op's ID slice, decoded on open, the last three read 32.3,
// 51.2 and 50.7 B.
// While the search index held a Go map per term and the first push
// allocated a ring's whole retention, the last two read 67.3 and 87.2 B. While the chars table held a row, and so two
// index entries, per character, the first three read 104.5, 132.4 and
// 167.4 B; while the text buffer held a 160 B record, a treap node and an
// ID-map entry per character, the second and third read 376.3 and 411.3 B;
// while the database's B-tree leaves held a slice header and a separate
// copy per key, in key slices grown by append to 128 slots and split in
// the middle, the first three read 254.9, 526.8 and 561.8 B.
func TestResidencyBytesPerChar(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const docs, chars, run = 20, 10_000, 500
	disk, store := storage.NewMemDisk(), wal.NewMemStore()
	database, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := util.NewRand(40)
	for i := 0; i < docs; i++ {
		d, err := eng.CreateDocument("alice", rng.Letters(8))
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < chars; n += run {
			var words strings.Builder
			for words.Len() < run {
				words.WriteString(rng.Letters(2 + rng.Intn(7)))
				words.WriteByte(' ')
			}
			if _, err := d.AppendText("alice", words.String()[:run]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}
	eng, database = nil, nil

	const stored = docs * chars
	before := settledHeap()
	perChar := func() float64 { return (float64(settledHeap()) - float64(before)) / stored }
	database, err = db.OpenWith(disk, store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	eng, err = core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	opened := perChar()
	infos, err := eng.ListDocuments()
	if err != nil {
		t.Fatal(err)
	}
	listed := perChar()
	svc, err := index.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	primed := perChar()
	for _, info := range infos {
		d, err := eng.OpenDocument(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertText("bob", d.Len()/2, "k"); err != nil {
			t.Fatal(err)
		}
	}
	svc.Sync()
	edited := perChar()
	runtime.KeepAlive(eng)
	for _, p := range []struct {
		name       string
		got, limit float64
	}{
		{"after open", opened, 3.2},
		{"after ListDocuments", listed, 25.4},
		{"after index.Open", primed, 46.3},
		{"after one edit in every document", edited, 46.0},
	} {
		t.Logf("%s: %.1f B of settled heap per stored character", p.name, p.got)
		if p.got > p.limit {
			t.Errorf("%s: %.1f B per stored character, limit %.1f", p.name, p.got, p.limit)
		}
	}
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
