package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/util"
)

// denyWrites is an access checker that allows everything until its user's
// writes are turned off.
type denyWrites struct {
	user string
	on   atomic.Bool
}

var errWriteDenied = errors.New("test: writes denied")

func (c *denyWrites) Check(user string, _ util.ID, right core.Right) error {
	if right == core.RWrite && user == c.user && c.on.Load() {
		return errWriteDenied
	}
	return nil
}

func (*denyWrites) ReadableMask(string, util.ID, []util.ID) []bool { return nil }

// TestSessionRaceStress runs eight pipelined sessions over net.Pipe, each
// on its own connection, two to a document: two typists per session, and a
// third goroutine that waits and moves the cursor, so acknowledgements race
// flushes, flushes race each other and MoveTo, and every session ends with
// Close while its typists may still be typing. One session's user loses
// write access mid-run, so one of its batches fails while others are in
// flight behind it. Every key a healthy session accepted must be in its
// document; the failing session must return its first error, the same
// one, from every call after it; and nothing may hang.
func TestSessionRaceStress(t *testing.T) {
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	deny := &denyWrites{user: "doomed"}
	eng.SetAccessChecker(deny)
	srv := New(eng, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	t.Cleanup(func() {
		srv.Close()
		database.Close()
	})

	const sessions, keysPerTypist = 8, 150
	var docs [sessions / 2]*core.Document
	for i := range docs {
		if docs[i], err = eng.CreateDocument("host", fmt.Sprintf("doc%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := docs[i].InsertText("host", 0, "0123456789"); err != nil {
			t.Fatal(err)
		}
	}
	type run struct {
		user     string
		letter   rune
		doc      *core.Document
		s        *client.Session
		accepted atomic.Int64
		closeErr error
	}
	runs := make([]*run, sessions)
	for i := range runs {
		user := fmt.Sprintf("u%d", i)
		if i == sessions-1 {
			user = deny.user
		}
		serverEnd, clientEnd := net.Pipe()
		srv.accept(serverEnd)
		c, err := client.New(clientEnd, client.WithUser(user))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		r := &run{user: user, letter: rune('a' + i), doc: docs[i%len(docs)]}
		d, err := c.Open(uint64(r.doc.ID()))
		if err != nil {
			t.Fatal(err)
		}
		if r.s, err = d.Session(); err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var all sync.WaitGroup
		for i, r := range runs {
			all.Add(1)
			go func(i int, r *run) {
				defer all.Done()
				var typists sync.WaitGroup
				for k := 0; k < 2; k++ {
					typists.Add(1)
					go func() {
						defer typists.Done()
						for n := 0; n < keysPerTypist; n++ {
							if r.s.Type(string(r.letter)) != nil {
								return
							}
							if r.accepted.Add(1) == keysPerTypist/2 && r.user == deny.user {
								deny.on.Store(true)
							}
						}
					}()
				}
				rng := rand.New(rand.NewSource(int64(i)))
				for n := 0; n < 20; n++ {
					if r.s.Wait() != nil {
						break
					}
					if r.s.MoveTo(rng.Intn(10)) != nil {
						break
					}
				}
				if i%2 == 0 {
					typists.Wait() // the others close while their typists type
				}
				r.closeErr = r.s.Close()
				typists.Wait()
			}(i, r)
		}
		all.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sessions hung")
	}

	for _, r := range runs {
		if r.user == deny.user {
			first := r.s.Err()
			if !isRemote(first) || !strings.Contains(first.Error(), errWriteDenied.Error()) {
				t.Fatalf("%s: sticky error %v, want the denied write", r.user, first)
			}
			if err := r.s.Type("x"); err != first {
				t.Errorf("%s: Type after the failure returned %v, want the first error %v", r.user, err, first)
			}
			if err := r.s.Wait(); err != first {
				t.Errorf("%s: Wait after the failure returned %v, want the first error %v", r.user, err, first)
			}
			if r.closeErr != first {
				t.Errorf("%s: Close returned %v, want the first error %v", r.user, r.closeErr, first)
			}
			continue
		}
		if r.closeErr != nil {
			t.Errorf("%s: Close: %v", r.user, r.closeErr)
		}
		if got := strings.Count(r.doc.Text(), string(r.letter)); int64(got) != r.accepted.Load() {
			t.Errorf("%s: the document holds %d of its %d accepted keys", r.user, got, r.accepted.Load())
		}
	}
}

func isRemote(err error) bool {
	var re *client.RemoteError
	return errors.As(err, &re)
}
