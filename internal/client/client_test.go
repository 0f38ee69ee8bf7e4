package client

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/protocol"
	"tendax/internal/server"
)

func harness(t *testing.T) string {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		database.Close()
	})
	return addr.String()
}

func TestDialLoginClose(t *testing.T) {
	addr := harness(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login("alice", ""); err != nil {
		t.Fatal(err)
	}
	if c.User() != "alice" {
		t.Fatalf("User = %q", c.User())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDocument("x"); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestOpenIsIdempotent(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	id, _ := c.CreateDocument("doc")
	d1, err := c.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("second Open returned a different replica")
	}
}

func TestReplicaConvergesUnderConcurrentClients(t *testing.T) {
	addr := harness(t)
	host, _ := Dial(addr)
	defer host.Close()
	host.Login("host", "")
	docID, _ := host.CreateDocument("converge")
	hd, err := host.Open(docID)
	if err != nil {
		t.Fatal(err)
	}

	const clients, ops = 4, 15
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.Login("u", "")
			d, err := c.Open(docID)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < ops; j++ {
				if err := d.Append("ab"); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// The host replica must converge to the full text.
	if err := hd.Resync(); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("ab", clients*ops)
	if hd.Text() != want {
		t.Fatalf("host replica = %d chars, want %d", len(hd.Text()), len(want))
	}
}

func TestEventsRecorded(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	id, _ := c.CreateDocument("events")
	d, _ := c.Open(id)
	base := d.Seq()
	d.Insert(0, "one")
	d.Delete(0, 1)
	if err := d.WaitSeq(base+2, 500); err != nil {
		t.Fatal(err)
	}
	evs := d.Events()
	if len(evs) < 2 {
		t.Fatalf("events = %v", evs)
	}
	last := evs[len(evs)-1]
	if last.Kind != "delete" || last.N != 1 {
		t.Fatalf("last event = %+v", last)
	}
}

func TestWatchCallback(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	id, _ := c.CreateDocument("watched")
	d, _ := c.Open(id)
	got := make(chan protocol.Event, 8)
	d.Watch(func(ev protocol.Event) { got <- ev })
	base := d.Seq()
	d.Insert(0, "ping")
	if err := d.WaitSeq(base+1, 500); err != nil {
		t.Fatal(err)
	}
	ev := <-got
	if ev.Kind != "insert" || ev.Text != "ping" {
		t.Fatalf("watched event = %+v", ev)
	}
}

func TestListDocuments(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	c.CreateDocument("one")
	c.CreateDocument("two")
	infos, err := c.ListDocuments()
	if err != nil || len(infos) != 2 {
		t.Fatalf("ListDocuments = %v, %v", infos, err)
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	id, _ := c.CreateDocument("err")
	d, _ := c.Open(id)
	if err := d.Insert(99, "out of range"); err == nil {
		t.Fatal("out-of-range insert succeeded")
	}
	if err := d.Delete(0, 5); err == nil {
		t.Fatal("delete on empty doc succeeded")
	}
	// The connection survives errors.
	if err := d.Insert(0, "fine"); err != nil {
		t.Fatal(err)
	}
}

// TestSeqNeverAheadOfWatcher pins the ordering Seq and WaitSeq promise: the
// sequence number they report reaches n only after the watcher's callback
// for event n has returned, on the push path and on the resync path alike.
// Whoever polls Seq to learn that a replica has caught up (keystroke-bench's
// convergence check does) may then close the books the watcher keeps.
func TestSeqNeverAheadOfWatcher(t *testing.T) {
	addr := harness(t)
	open := func(user string, id uint64) (*Client, *Doc) {
		c, err := Dial(addr, WithUser(user))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if id == 0 {
			if id, err = c.CreateDocument("gated"); err != nil {
				t.Fatal(err)
			}
		}
		d, err := c.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		return c, d
	}
	_, d := open("alice", 0)
	_, peer := open("bob", d.ID())
	// Let bob's join reach alice's replica before the watcher goes in.
	if err := d.WaitSeq(peer.Seq(), 500); err != nil {
		t.Fatal(err)
	}

	// A watcher that reports each event and then holds its callback open
	// until the test hands it a token.
	entered := make(chan protocol.Event, 8)
	gate := make(chan struct{})
	d.Watch(func(ev protocol.Event) {
		entered <- ev
		<-gate
	})
	t.Cleanup(func() {
		d.Watch(nil)
		close(gate)
	})
	next := func() protocol.Event {
		t.Helper()
		select {
		case ev := <-entered:
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("the watcher was never called")
			panic("unreachable")
		}
	}

	// Push path: bob types, the push is folded into alice's replica, the
	// callback is held — Text shows the key, Seq must not report it yet.
	base := d.Seq()
	if err := peer.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	ev := next()
	if ev.Kind != "insert" || ev.Seq != base+1 {
		t.Fatalf("watched %+v, want the insert at seq %d", ev, base+1)
	}
	if got := d.Text(); got != "x" {
		t.Fatalf("text %q while the callback runs, want the event folded already", got)
	}
	if got := d.Seq(); got != base {
		t.Fatalf("Seq() = %d while the callback for event %d is still running, want %d", got, ev.Seq, base)
	}
	gate <- struct{}{}
	if err := d.WaitSeq(ev.Seq, 500); err != nil {
		t.Fatalf("Seq never reached the event after its callback returned: %v", err)
	}

	// Undo is pushed with its positional items like any edit: folded
	// before the callback, reported by Seq only after it.
	if err := peer.Undo(protocol.ScopeLocal); err != nil {
		t.Fatal(err)
	}
	if ev := next(); ev.Kind != "undo" || ev.Seq != base+2 {
		t.Fatalf("watched %+v, want the undo at seq %d", ev, base+2)
	}
	if got := d.Text(); got != "" {
		t.Fatalf("text %q while the undo callback runs, want the undo folded already", got)
	}
	if got := d.Seq(); got != base+1 {
		t.Fatalf("Seq() = %d while the undo callback is still running, want %d", got, base+1)
	}
	gate <- struct{}{}
	if err := d.WaitSeq(base+2, 500); err != nil {
		t.Fatalf("Seq never reached the undo after its callback returned: %v", err)
	}

	// Resync path: stand in for a detected gap — while a resync is
	// pending the replica drops pushes — so bob's next key reaches the
	// replica only through the resync, which announces itself with a
	// "resync" event.
	d.mu.Lock()
	d.resyncing = true
	d.mu.Unlock()
	if err := peer.Insert(0, "y"); err != nil {
		t.Fatal(err)
	}
	resynced := make(chan error, 1)
	go func() { resynced <- d.Resync() }()
	if ev := next(); ev.Kind != "resync" {
		t.Fatalf("watched %+v, want the resync", ev)
	}
	if got := d.Text(); got != "y" {
		t.Fatalf("text %q while the resync callback runs, want the key adopted already", got)
	}
	if got := d.Seq(); got != base+2 {
		t.Fatalf("Seq() = %d while the resync callback is still running, want %d", got, base+2)
	}
	gate <- struct{}{}
	if err := <-resynced; err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.resyncing = false
	d.mu.Unlock()
	if err := d.WaitSeq(base+3, 500); err != nil {
		t.Fatalf("Seq never reached the key after the resync callback returned: %v", err)
	}
}
