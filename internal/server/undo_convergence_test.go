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
// rehydrates. After every step both v3 replicas must equal the committed
// text byte for byte, having folded every undo and redo from its
// positional items: not one resync, counted from each replica's Open.
func TestUndoConvergesWithoutResync(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			undoConvergence(t, seed, 60)
		})
	}
}

func undoConvergence(t *testing.T, seed int64, steps int) {
	addr, eng := harness(t, false)
	ann := login(t, addr, "ann", "")
	docID, err := ann.CreateDocument("undo-fold")
	if err != nil {
		t.Fatal(err)
	}
	bob := login(t, addr, "bob", "")
	srvDoc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	var resyncs atomic.Int32
	replicas := map[string]*client.Doc{}
	for name, c := range map[string]*client.Client{"ann": ann, "bob": bob} {
		d, err := c.Open(docID)
		if err != nil {
			t.Fatal(err)
		}
		d.Watch(func(ev protocol.Event) {
			if ev.Kind == "resync" {
				resyncs.Add(1)
			}
		})
		replicas[name] = d
	}
	// converge waits for every replica to report the last published event
	// and checks it against the committed text.
	converge := func(step int) {
		t.Helper()
		seq := eng.Bus().Seq(util.ID(docID))
		deadline := time.Now().Add(10 * time.Second)
		for name, d := range replicas {
			for d.Seq() < seq {
				if time.Now().After(deadline) {
					t.Fatalf("step %d: %s replica is stuck below seq %d", step, name, seq)
				}
				time.Sleep(time.Millisecond)
			}
		}
		want := srvDoc.Text()
		for name, d := range replicas {
			if got := d.Text(); got != want {
				t.Fatalf("step %d: %s replica diverged:\n server %q\n got    %q", step, name, want, got)
			}
		}
		if n := resyncs.Load(); n != 0 {
			t.Fatalf("step %d: replicas resynced %d times", step, n)
		}
	}
	converge(-1)

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
	}
	if !rehydrated {
		t.Fatal("no undo rehydrated an archived tombstone")
	}
}
