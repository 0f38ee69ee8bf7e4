package workload

import (
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/util"
)

func fixture(t *testing.T) *core.Engine {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	eng, err := core.NewEngine(database, util.NewFakeClock(time.Unix(1_000_000, 0).UTC(), time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestTypistDeterministic(t *testing.T) {
	run := func() string {
		eng := fixture(t)
		doc, _ := eng.CreateDocument("u", "d")
		ty := newTypist("u", 42)
		if err := ty.run(doc, 200); err != nil {
			t.Fatal(err)
		}
		return doc.Text()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("same seed produced different documents")
	}
	if len(a) == 0 {
		t.Fatal("typist produced nothing")
	}
}

func TestTypistKeepsInvariants(t *testing.T) {
	eng := fixture(t)
	doc, _ := eng.CreateDocument("u", "d")
	ty := newTypist("u", 7)
	if err := ty.run(doc, 500); err != nil {
		t.Fatal(err)
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildCorpusShape(t *testing.T) {
	eng := fixture(t)
	docs, err := BuildCorpus(eng, CorpusSpec{
		Docs: 30, Users: 5, MeanSize: 60, ReadRatio: 1.0, StateSplit: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 30 {
		t.Fatalf("built %d docs", len(docs))
	}
	infos, _ := eng.ListDocuments()
	if len(infos) != 30 {
		t.Fatalf("engine lists %d docs", len(infos))
	}
	finals := 0
	for _, in := range infos {
		if in.Size == 0 {
			t.Fatalf("doc %s empty", in.Name)
		}
		if in.State == "final" {
			finals++
		}
	}
	if finals == 0 || finals == 30 {
		t.Fatalf("state split produced %d finals", finals)
	}
}

func TestBuildPasteChainsEdges(t *testing.T) {
	eng := fixture(t)
	docs, edges, err := BuildPasteChains(eng, PasteChainSpec{
		Depth: 2, FanOut: 3, ChunkLen: 10, Externals: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 root + 3 + 9 children.
	if len(docs) != 13 {
		t.Fatalf("%d docs", len(docs))
	}
	// 2 external pastes + 12 child pastes.
	if edges != 14 {
		t.Fatalf("%d edges", edges)
	}
	// Children carry provenance from their parents.
	child := docs[1]
	metas, err := child.RangeMeta(0, child.Len())
	if err != nil {
		t.Fatal(err)
	}
	hasProv := false
	for _, m := range metas {
		if m.SourceDoc == docs[0].ID() {
			hasProv = true
			break
		}
	}
	if !hasProv {
		t.Fatal("child has no provenance from root")
	}
}

func TestLatencyRecorder(t *testing.T) {
	var r LatencyRecorder
	if r.Percentile(50) != 0 || r.Mean() != 0 {
		t.Fatal("empty recorder nonzero")
	}
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if r.count() != 100 {
		t.Fatalf("N = %d", r.count())
	}
	if p := r.Percentile(50); p != 50*time.Millisecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := r.Percentile(99); p != 99*time.Millisecond {
		t.Fatalf("p99 = %v", p)
	}
	if m := r.Mean(); m != 50500*time.Microsecond {
		t.Fatalf("mean = %v", m)
	}
}
