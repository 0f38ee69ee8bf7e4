package server

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/util"
)

// TestUndoConvergesWithoutResync drives a seeded history of typing, batch
// deletes, local and global undo and redo — over the other user's
// tombstones too — and compactions whose archived tombstones a later undo
// rehydrates. After every step the v2 (JSON) and v3 (binary) replicas must
// equal the committed text byte for byte, having folded every undo and
// redo from its positional items: not one resync.
func TestUndoConvergesWithoutResync(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			undoConvergence(t, seed, 60)
		})
	}
}

func undoConvergence(t *testing.T, seed int64, steps int) {
	addr, eng := harness(t, false)
	c2 := loginVer(t, addr, "ann", "", protocol.Version2)
	docID, err := c2.CreateDocument("undo-fold")
	if err != nil {
		t.Fatal(err)
	}
	c3 := loginVer(t, addr, "bob", "", protocol.VersionMax)
	srvDoc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	replicas := map[string]*client.Doc{}
	for name, c := range map[string]*client.Client{"v2": c2, "v3": c3} {
		if replicas[name], err = c.Open(docID); err != nil {
			t.Fatal(err)
		}
	}
	// caughtUp waits up to wait for every replica to report the last
	// published event.
	caughtUp := func(wait time.Duration) bool {
		seq := eng.Bus().Seq(util.ID(docID))
		deadline := time.Now().Add(wait)
		for _, d := range replicas {
			for d.Seq() < seq {
				if time.Now().After(deadline) {
					return false
				}
				time.Sleep(time.Millisecond)
			}
		}
		return true
	}
	// converge checks every caught-up replica against the committed text.
	converge := func(step int) {
		t.Helper()
		if !caughtUp(10 * time.Second) {
			t.Fatalf("step %d: a replica is stuck below seq %d", step, eng.Bus().Seq(util.ID(docID)))
		}
		want := srvDoc.Text()
		for name, d := range replicas {
			if got := d.Text(); got != want {
				t.Fatalf("step %d: %s replica diverged:\n server %q\n got    %q", step, name, want, got)
			}
		}
	}
	// Count resyncs only once every replica has folded a key from its
	// push: a replica may resync while it opens, racing its own join, and
	// a push landing during that resync is dropped until the next one
	// reveals the gap — so keep typing until a key arrives by push.
	var resyncs atomic.Int32
	pushed := make(map[*client.Doc]*atomic.Uint64)
	for _, d := range replicas {
		last := new(atomic.Uint64)
		pushed[d] = last
		d.Watch(func(ev protocol.Event) {
			if ev.Kind == "resync" {
				resyncs.Add(1)
			} else {
				last.Store(ev.Seq)
			}
		})
	}
	for settled, tries := false, 0; !settled; tries++ {
		if tries == 100 {
			t.Fatal("no key ever reached every replica by push")
		}
		if _, err := srvDoc.InsertText("ann", 0, "."); err != nil {
			t.Fatal(err)
		}
		settled = caughtUp(time.Second)
		for _, last := range pushed {
			settled = settled && last.Load() == eng.Bus().Seq(util.ID(docID))
		}
	}
	converge(-1)
	resyncs.Store(0)

	rng := rand.New(rand.NewSource(seed))
	users := []string{"ann", "bob"}
	must := func(err error) {
		t.Helper()
		if err != nil && !errors.Is(err, core.ErrNothingToUndo) && !errors.Is(err, core.ErrNothingToRedo) {
			t.Fatal(err)
		}
	}
	word := func() string {
		return strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(4))
	}
	// deleteSome tombstones two ranges in one batch.
	deleteSome := func(user string) {
		l := srvDoc.Len()
		if l < 12 {
			return
		}
		_, err := srvDoc.Apply(user, []core.EditOp{
			{Kind: core.EditDelete, Pos: rng.Intn(l/2 - 3), N: 1 + rng.Intn(3)},
			{Kind: core.EditDelete, Pos: l/2 + rng.Intn(l/2-3), N: 1 + rng.Intn(3)},
		})
		must(err)
	}
	rehydrated := false
	for step := 0; step < steps; step++ {
		user := users[rng.Intn(2)]
		switch op := rng.Intn(10); {
		case op < 3:
			_, err := srvDoc.InsertText(user, rng.Intn(srvDoc.Len()+1), word())
			must(err)
		case op < 5:
			deleteSome(user)
		case op == 5:
			_, err := srvDoc.UndoLocal(user)
			must(err)
		case op == 6:
			_, err := srvDoc.UndoGlobal(user) // may restore the other user's tombstones
			must(err)
		case op == 7:
			_, err := srvDoc.RedoLocal(user)
			must(err)
		case op == 8:
			_, err := srvDoc.RedoGlobal(user)
			must(err)
		case op == 9: // archive fresh tombstones, then undo the delete that made them
			deleteSome(user)
			stats, err := srvDoc.Compact(time.Now().Add(time.Hour))
			must(err)
			_, err = srvDoc.UndoLocal(user)
			must(err)
			rehydrated = rehydrated || stats.Archived > 0
		}
		converge(step)
		if n := resyncs.Load(); n != 0 {
			t.Fatalf("step %d: replicas resynced %d times", step, n)
		}
	}
	if !rehydrated {
		t.Fatal("no undo rehydrated an archived tombstone")
	}
}
