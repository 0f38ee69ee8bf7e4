package placement

import (
	"testing"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/util"
)

func openMem(t *testing.T, shards int) *Cluster {
	t.Helper()
	cl, err := Open(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestPlacementDeterministic pins the core placement invariant: a document
// created on any shard is forever routed back to that shard by ID
// arithmetic alone, and round-robin creation touches every shard.
func TestPlacementDeterministic(t *testing.T) {
	cl := openMem(t, 4)
	perShard := make(map[int]int)
	for i := 0; i < 16; i++ {
		d, err := cl.CreateDocument("alice", "doc")
		if err != nil {
			t.Fatal(err)
		}
		shard := cl.ShardFor(d.ID())
		perShard[shard]++
		if eng := cl.EngineFor(d.ID()); eng != cl.shard(shard).Engine {
			t.Fatalf("doc %v: EngineFor disagrees with ShardFor", d.ID())
		}
		// The owning shard must serve the document; every other shard
		// must not know it.
		if _, err := cl.OpenDocument(d.ID()); err != nil {
			t.Fatalf("doc %v: open via cluster: %v", d.ID(), err)
		}
		for s := 0; s < cl.Shards(); s++ {
			_, err := cl.shard(s).Engine.OpenDocument(d.ID())
			if s == shard && err != nil {
				t.Fatalf("doc %v: owning shard %d cannot open it: %v", d.ID(), s, err)
			}
			if s != shard && err == nil {
				t.Fatalf("doc %v: shard %d serves a foreign document", d.ID(), s)
			}
		}
	}
	for s := 0; s < 4; s++ {
		if perShard[s] != 4 {
			t.Fatalf("round-robin placed %d docs on shard %d, want 4 (%v)", perShard[s], s, perShard)
		}
	}
}

// TestClusterListAndFind exercises the fan-out surfaces: listings merge
// every shard ordered by ID, and name resolution crosses shards.
func TestClusterListAndFind(t *testing.T) {
	cl := openMem(t, 3)
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, n := range names {
		if _, err := cl.CreateDocument("alice", n); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := cl.ListDocuments()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(names) {
		t.Fatalf("listed %d docs, want %d", len(infos), len(names))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].ID >= infos[i].ID {
			t.Fatalf("listing not ordered by ID: %v before %v", infos[i-1].ID, infos[i].ID)
		}
	}
	for _, n := range names {
		d, err := cl.findDocument(n)
		if err != nil {
			t.Fatalf("find %q: %v", n, err)
		}
		info, err := cl.docInfoByID(d.ID())
		if err != nil || info.Name != n {
			t.Fatalf("find %q resolved to %q (%v)", n, info.Name, err)
		}
	}
	if _, err := cl.findDocument("nope"); err != core.ErrDocNotFound {
		t.Fatalf("missing name: got %v, want ErrDocNotFound", err)
	}
}

// TestPerShardRecovery pins shard crash independence: a file-backed
// cluster is closed mid-life and reopened; every shard recovers its own
// WAL and every document comes back byte-for-byte on its original shard.
func TestPerShardRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cluster {
		cl, err := Open(Options{Shards: 3, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cl := open()
	type docState struct {
		id    util.ID
		shard int
		text  string
	}
	var docs []docState
	texts := []string{"first shard text", "second", "third one here", "fourth"}
	for i, txt := range texts {
		d, err := cl.CreateDocument("alice", "doc")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertText("alice", 0, txt); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, docState{id: d.ID(), shard: cl.ShardFor(d.ID()), text: txt})
		_ = i
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	cl2 := open()
	defer cl2.Close()
	if cl2.Shards() != 3 {
		t.Fatalf("reopened with %d shards", cl2.Shards())
	}
	for s := 0; s < 3; s++ {
		if cl2.shard(s).DB.Recovery == nil {
			t.Fatalf("shard %d has no recovery stats", s)
		}
	}
	for _, ds := range docs {
		if got := cl2.ShardFor(ds.id); got != ds.shard {
			t.Fatalf("doc %v moved shard %d -> %d across restart", ds.id, ds.shard, got)
		}
		d, err := cl2.OpenDocument(ds.id)
		if err != nil {
			t.Fatalf("doc %v after recovery: %v", ds.id, err)
		}
		if got := d.Text(); got != ds.text {
			t.Fatalf("doc %v text after recovery: %q want %q", ds.id, got, ds.text)
		}
	}
	// New documents keep minting on the correct residue classes after the
	// per-shard MaxPK reseeding.
	d, err := cl2.CreateDocument("alice", "post-restart")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.EngineFor(d.ID()).OpenDocument(d.ID()); err != nil {
		t.Fatalf("post-restart doc not on its computed shard: %v", err)
	}
}

// TestWrapSingleEngine covers the compatibility path used by server.New:
// a wrapped engine is a one-shard cluster routing everything to itself,
// and Close leaves the caller-owned database alone.
func TestWrapSingleEngine(t *testing.T) {
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := Wrap(eng)
	if cl.Shards() != 1 {
		t.Fatalf("wrapped cluster has %d shards", cl.Shards())
	}
	d, err := cl.CreateDocument("alice", "solo")
	if err != nil {
		t.Fatal(err)
	}
	if cl.EngineFor(d.ID()) != eng {
		t.Fatal("wrapped cluster routed away from its engine")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	// The database must still be usable: Close on a wrapped cluster is a
	// no-op by contract.
	if _, err := eng.CreateDocument("alice", "after-close"); err != nil {
		t.Fatalf("wrapped Close touched the caller's database: %v", err)
	}
}
