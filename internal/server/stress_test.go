package server

import (
	"fmt"
	"sync"
	"testing"

	"tendax/internal/client"
	"tendax/internal/util"
)

// TestRandomizedCollaborationStress drives a realistic mixed workload —
// positional inserts, deletes, copies, pastes, undos — from several
// concurrent TCP clients against one document, then verifies every
// structural invariant and that all replicas converge to the server state.
func TestRandomizedCollaborationStress(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized multi-client stress run skipped in -short mode")
	}
	addr, eng := harness(t, false)
	host := login(t, addr, "host", "")
	docID, err := host.CreateDocument("stress")
	if err != nil {
		t.Fatal(err)
	}
	seedDoc, _ := host.Open(docID)
	if err := seedDoc.Insert(0, "seed text to operate on"); err != nil {
		t.Fatal(err)
	}

	const clients = 5
	const opsPer = 40
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	replicas := make([]*client.Doc, clients)
	var rmu sync.Mutex

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("stress%d", i)
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			// Note: connection stays open until test cleanup so replicas
			// can be compared at the end.
			if err := c.Login(user, ""); err != nil {
				errCh <- err
				return
			}
			d, err := c.Open(docID)
			if err != nil {
				errCh <- err
				return
			}
			rmu.Lock()
			replicas[i] = d
			rmu.Unlock()
			rng := util.NewRand(uint64(1000 + i))
			for j := 0; j < opsPer; j++ {
				n := d.Len()
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // insert at random replica position
					pos := 0
					if n > 0 {
						pos = rng.Intn(n)
					}
					if err := d.Insert(pos, rng.Letters(1+rng.Intn(5))); err != nil {
						// Racy positions can go stale; only range errors
						// are acceptable.
						continue
					}
				case 5, 6: // append
					if err := d.Append(rng.Letters(3)); err != nil {
						errCh <- err
						return
					}
				case 7: // delete
					if n > 2 {
						if err := d.Delete(rng.Intn(n/2), 1+rng.Intn(2)); err != nil {
							continue
						}
					}
				case 8: // copy+paste within the doc
					if n > 4 {
						clip, err := d.Copy(rng.Intn(n/2), 2)
						if err != nil {
							continue
						}
						if err := d.Paste(0, clip); err != nil {
							continue
						}
					}
				case 9: // undo own latest
					if err := d.Undo("local"); err != nil {
						continue // nothing to undo is fine
					}
				}
			}
			errCh <- nil
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Server-side invariants: buffer, chain and database all agree.
	srvDoc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	if err := srvDoc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := srvDoc.Text()

	// Every replica converges: a Read returns once the replica has folded
	// the pushes still in flight.
	for i, d := range replicas {
		if d == nil {
			continue
		}
		text, err := d.Read()
		if err != nil {
			t.Fatal(err)
		}
		if text != want {
			t.Fatalf("replica %d diverged: %d chars vs server %d",
				i, len(text), len(want))
		}
	}

	// History and undo flags are consistent: every undone op has a
	// matching undo entry.
	hist := srvDoc.History()
	undoRefs := map[util.ID]bool{}
	for _, op := range hist {
		if op.Kind == "undo" {
			undoRefs[op.Ref] = true
		}
	}
	for _, op := range hist {
		if op.Undone && op.Kind != "undo" && !undoRefs[op.ID] {
			t.Fatalf("op %v marked undone without an undo entry", op.ID)
		}
	}
}
