package server

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/util"
)

// TestReadServedByReplica pins what a read costs on the wire: the server
// records it and answers with a sequence number, and the reader's replica
// serves the text, so reading a 30k-character document sends a few bytes,
// not the document.
func TestReadServedByReplica(t *testing.T) {
	const size, maxBytes = 30_000, 64
	addr, eng, _, srv := harnessSrv(t, false)
	c := login(t, addr, "alice", "")
	docID, err := c.CreateDocument("big")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("x", size)
	if err := d.Insert(0, want); err != nil {
		t.Fatal(err)
	}
	if err := waitSeq(d, eng.Bus().Seq(util.ID(docID))); err != nil {
		t.Fatal(err)
	}
	before := srv.Metrics().BytesOut.Load()
	got, err := d.Read()
	if err != nil {
		t.Fatal(err)
	}
	if sent := srv.Metrics().BytesOut.Load() - before; sent >= maxBytes {
		t.Errorf("a read of a %d-character document sent %d B, want under %d", size, sent, maxBytes)
	}
	if got != want {
		t.Fatalf("read %d characters, want %d", len(got), size)
	}
}

// TestReadYourWrites pins that a read holds every key acknowledged before
// it, the reader's own and a peer's: the read's sequence number is taken
// after the acknowledged edits were published, and Read waits for the
// replica to fold up to it.
func TestReadYourWrites(t *testing.T) {
	addr, _ := harness(t, false)
	alice, bob := login(t, addr, "alice", ""), login(t, addr, "bob", "")
	docID, err := alice.CreateDocument("ryw")
	if err != nil {
		t.Fatal(err)
	}
	ad, err := alice.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := bob.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ad.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	typed := ""
	for i := 0; i < 50; i++ {
		key := string(rune('a' + i%26))
		if err := s.Type(key); err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		typed += key
		for who, d := range map[string]*client.Doc{"alice": ad, "bob": bd} {
			got, err := d.Read()
			if err != nil {
				t.Fatal(err)
			}
			if got != typed {
				t.Fatalf("after key %d, %s read %q, want %q", i, who, got, typed)
			}
		}
	}
}

// TestReadAcrossShedAndResync races a read with a shed: the reader's
// connection stops reading while the document's bus floods past its ring,
// so the server sheds the subscriber and pushes it a fresh base. The
// read, sent meanwhile, returns only once the replica has caught up to
// the read's sequence number: the text then holds the edit committed
// inside the gap.
func TestReadAcrossShedAndResync(t *testing.T) {
	addr, eng := harness(t, false)
	eng.Bus().SetRetention(8)
	reader := login(t, addr, "reader", "")
	docID, err := reader.CreateDocument("shed")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reader.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	srvDoc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvDoc.InsertText("ghost", 0, "before "); err != nil {
		t.Fatal(err)
	}
	// The watcher runs on the connection's read loop: holding it in its
	// first callback stops the reader from reading anything more.
	stalled, resume := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(resume) })
	t.Cleanup(release)
	var once sync.Once
	rd.Watch(func(protocol.Event) {
		once.Do(func() {
			close(stalled)
			<-resume
		})
	})
	if _, err := srvDoc.InsertText("ghost", 7, "during"); err != nil {
		t.Fatal(err)
	}
	<-stalled
	doc := util.ID(docID)
	now := eng.Clock().Now()
	for i := 0; i < 30000; i++ {
		eng.Bus().MoveCursor(doc, "flood", i, now)
	}
	if _, err := srvDoc.InsertText("ghost", 0, "gap "); err != nil {
		t.Fatal(err)
	}
	readSeq := eng.Bus().Seq(doc)
	want := srvDoc.Text()

	type result struct {
		text string
		err  error
	}
	read := make(chan result, 1)
	go func() {
		text, err := rd.Read()
		read <- result{text, err}
	}()
	release()
	select {
	case r := <-read:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.text != want {
			t.Fatalf("read %q, want %q", r.text, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("read never returned; replica at seq %d, read's at %d or more", rd.Seq(), readSeq)
	}
	if got := rd.Seq(); got < readSeq {
		t.Fatalf("read returned with the replica at seq %d, below the read's %d", got, readSeq)
	}
	if !rd.Lagged() {
		t.Fatal("the flood never shed the reader: the read raced no base")
	}
}

// TestReadOnClosedClient pins that a read on a closed client fails with
// ErrClosed instead of waiting for a replica that no push will advance.
func TestReadOnClosedClient(t *testing.T) {
	addr, _ := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, err := c.CreateDocument("closed")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(0, "text"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := d.Read()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, client.ErrClosed) {
			t.Fatalf("read on a closed client = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read on a closed client hangs")
	}
}

// TestReadsCounted pins that a read served by the replica is still a read
// to the server: each one inserts a row in the reads table, and the
// most-read ranking orders documents by them.
func TestReadsCounted(t *testing.T) {
	addr, eng, _, srv := queryHarness(t, false)
	c := login(t, addr, "bob", "")
	reads := map[string]int{"once": 1, "thrice": 3}
	ids := map[string]uint64{}
	for name, n := range reads {
		id, err := c.CreateDocument(name)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
		d, err := c.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(0, "shared words about "+name); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := d.Read(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, n := range reads {
		evs, err := eng.ReadEventsOf(util.ID(ids[name]))
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != n {
			t.Fatalf("%q has %d reads recorded, want %d", name, len(evs), n)
		}
		for _, ev := range evs {
			if ev.User != "bob" {
				t.Fatalf("%q read recorded for %q, want bob", name, ev.User)
			}
		}
	}
	srv.cl.Index().Sync()
	hits, err := c.Search(client.SearchQuery{Terms: []string{"shared"}, Rank: "most-read"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].Doc.ID != ids["thrice"] || hits[1].Doc.ID != ids["once"] {
		t.Fatalf("most-read ranking = %+v, want %q (%d) before %q (%d)", hits,
			"thrice", ids["thrice"], "once", ids["once"])
	}
}

// TestRestrictedReplicaConverges pins the replica of a user whom a range
// rule denies part of the text. Pushes carry unfiltered positions with the
// denied runes masked, so every base the replica is built on (its
// subscription's first, and the one after a gap) must be the masked text
// too, not the elided one: on an elided base an insert after the hidden
// range lands off its end and is dropped. Inserts before, inside and after
// the range, folded live and across a gap, leave the replica equal to the
// masked view, and Read returns that view.
func TestRestrictedReplicaConverges(t *testing.T) {
	addr, eng, store := harnessStore(t, true)
	alice := login(t, addr, "alice", "pw-a")
	docID, err := alice.CreateDocument("restricted")
	if err != nil {
		t.Fatal(err)
	}
	ad, err := alice.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.Insert(0, "public SECRET public"); err != nil {
		t.Fatal(err)
	}
	srvDoc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	metas, err := srvDoc.RangeMeta(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.DenyRange("alice", srvDoc.ID(), security.UserPrefix+"bob",
		core.RRead, metas[0].ID, metas[len(metas)-1].ID); err != nil {
		t.Fatal(err)
	}
	eng.Bus().SetRetention(8)

	bob := login(t, addr, "bob", "pw-b")
	bd, err := bob.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	converged := func(stage, want string) {
		t.Helper()
		if err := waitSeq(bd, eng.Bus().Seq(util.ID(docID))); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if got := bd.Text(); got != want {
			t.Fatalf("%s: bob's replica holds %q, want %q", stage, got, want)
		}
		got, err := bd.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: bob read %q, want %q", stage, got, want)
		}
	}
	converged("open", "public ██████ public")

	// Live: after the range, then before it.
	if err := ad.Insert(20, "X"); err != nil {
		t.Fatal(err)
	}
	if err := ad.Insert(0, "Y"); err != nil {
		t.Fatal(err)
	}
	converged("live", "Ypublic ██████ publicX")

	// Across a gap: bob's connection stops reading while the document's
	// bus floods past its ring, so bob is shed and the server pushes his
	// replica a fresh base; the inserts before, inside and after the range
	// land in the meantime.
	stalled, resume := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(resume) })
	t.Cleanup(release)
	var once sync.Once
	var bases atomic.Int32 // bases after a gap
	bd.Watch(func(ev protocol.Event) {
		once.Do(func() {
			close(stalled)
			<-resume
		})
		if ev.Kind == protocol.EvResync && ev.Name == protocol.LaggedRingMiss {
			bases.Add(1)
		}
	})
	for _, ins := range []struct {
		pos  int
		text string
	}{{0, "a"}, {12, "b"}, {24, "c"}} {
		if err := ad.Insert(ins.pos, ins.text); err != nil {
			t.Fatal(err)
		}
	}
	<-stalled
	now := eng.Clock().Now()
	for i := 0; i < 30000; i++ {
		eng.Bus().MoveCursor(util.ID(docID), "flood", i, now)
	}
	release()
	converged("gap", "aYpublic ███████ publicXc")
	if !bd.Lagged() || bases.Load() == 0 {
		t.Fatalf("bob's replica took no base after it lagged (lagged %v, bases %d)", bd.Lagged(), bases.Load())
	}
	if got := srvDoc.Text(); got != "aYpublic SECbRET publicXc" {
		t.Fatalf("committed text %q", got)
	}
}
