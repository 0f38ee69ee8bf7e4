package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/editor"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/util"
)

// harness starts a server over an in-memory database and returns its
// address. sec=true enables authentication with two users.
func harness(t *testing.T, sec bool) (addr string, eng *core.Engine) {
	addr, eng, _ = harnessStore(t, sec)
	return addr, eng
}

// harnessStore is harness exposing the security store, for tests that
// install ACL rules directly (nil when sec is false).
func harnessStore(t *testing.T, sec bool) (addr string, eng *core.Engine, store *security.Store) {
	addr, eng, store, _ = harnessSrv(t, sec)
	return addr, eng, store
}

// harnessSrv additionally exposes the server, for tests that manage its
// cluster directly (starting indexers, reading metrics).
func harnessSrv(t *testing.T, sec bool) (addr string, eng *core.Engine, store *security.Store, srv *Server) {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err = core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sec {
		store, err = security.NewStore(eng)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetAccessChecker(store)
		store.CreateUser("alice", "pw-a")
		store.CreateUser("bob", "pw-b")
	}
	srv = New(eng, store)
	srv.SetLogf(func(string, ...interface{}) {})
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		database.Close()
	})
	return a.String(), eng, store, srv
}

func login(t *testing.T, addr, user, pw string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Login(user, pw); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLoginRequired(t *testing.T) {
	addr, _ := harness(t, false)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateDocument("x"); err == nil {
		t.Fatal("request before login succeeded")
	}
	if err := c.Login("anyone", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDocument("x"); err != nil {
		t.Fatal(err)
	}
}

func TestAuthenticationEnforced(t *testing.T) {
	addr, _ := harness(t, true)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("alice", "wrong"); err == nil {
		t.Fatal("bad password accepted")
	}
	if err := c.Login("alice", "pw-a"); err != nil {
		t.Fatal(err)
	}
}

func TestEditThroughServer(t *testing.T) {
	addr, eng := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, err := c.CreateDocument("remote-doc")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	base := d.Seq()
	if err := d.Insert(0, "hello over tcp"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0, 6); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitSeq(base+2, 500); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "over tcp" {
		t.Fatalf("replica = %q", d.Text())
	}
	// The database agrees.
	srvDoc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	if srvDoc.Text() != "over tcp" {
		t.Fatalf("server doc = %q", srvDoc.Text())
	}
}

func TestRealTimePropagationBetweenEditors(t *testing.T) {
	addr, _ := harness(t, false)
	alice := login(t, addr, "alice", "")
	bob := login(t, addr, "bob", "")

	docID, _ := alice.CreateDocument("shared")
	da, err := alice.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := bob.Open(docID)
	if err != nil {
		t.Fatal(err)
	}

	// Alice types; it must appear in bob's replica without bob polling.
	// Baselines are the receiver's own sequence (the sender's replica may
	// not have caught up with its own push yet).
	bobBase := db2.Seq()
	if err := da.Insert(0, "alice says hi"); err != nil {
		t.Fatal(err)
	}
	if err := db2.WaitSeq(bobBase+1, 500); err != nil {
		t.Fatal(err)
	}
	if db2.Text() != "alice says hi" {
		t.Fatalf("bob's replica = %q", db2.Text())
	}
	// And the other direction: wait on the visible outcome (sequence
	// numbers on the sender side are inherently racy).
	if err := db2.Append(" — bob too"); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if strings.HasSuffix(da.Text(), "bob too") {
			break
		}
		if i == 250 {
			da.Resync()
		}
		if i > 500 {
			t.Fatalf("alice's replica = %q", da.Text())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestConcurrentTypingLANParty(t *testing.T) {
	addr, eng := harness(t, false)
	host := login(t, addr, "host", "")
	docID, _ := host.CreateDocument("lan-party")

	const editors = 6
	const lines = 10
	var wg sync.WaitGroup
	errs := make(chan error, editors)
	for i := 0; i < editors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("player%d", i)
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Login(user, ""); err != nil {
				errs <- err
				return
			}
			d, err := c.Open(docID)
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < lines; j++ {
				if err := d.Append(fmt.Sprintf("<%s:%d>", user, j)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srvDoc, _ := eng.OpenDocument(util.ID(docID))
	text := srvDoc.Text()
	for i := 0; i < editors; i++ {
		for j := 0; j < lines; j++ {
			frag := fmt.Sprintf("<player%d:%d>", i, j)
			if strings.Count(text, frag) != 1 {
				t.Fatalf("fragment %s count = %d", frag, strings.Count(text, frag))
			}
		}
	}
	if err := srvDoc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCopyPasteAcrossConnections pastes a clipboard copied on one
// connection into another user's document: the paste, a one-op edit,
// names its source, and the provenance query reports it.
func TestCopyPasteAcrossConnections(t *testing.T) {
	addr, eng, _, _ := queryHarness(t, false)
	alice := login(t, addr, "alice", "")
	bob := login(t, addr, "bob", "")

	srcID, _ := alice.CreateDocument("src")
	src, _ := alice.Open(srcID)
	src.Insert(0, "valuable paragraph")

	dstID, _ := bob.CreateDocument("dst")
	dst, _ := bob.Open(dstID)
	base := dst.Seq()
	clip, err := src.Copy(0, 8) // "valuable"
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Paste(0, clip); err != nil {
		t.Fatal(err)
	}
	if err := dst.WaitSeq(base+1, 500); err != nil {
		t.Fatal(err)
	}
	if dst.Text() != "valuable" {
		t.Fatalf("dst = %q", dst.Text())
	}
	// Provenance survived the wire round trip.
	d, _ := eng.OpenDocument(util.ID(dstID))
	meta, err := d.CharMetaAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.SourceDoc != util.ID(srcID) {
		t.Fatalf("provenance lost: %v", meta.SourceDoc)
	}
	refs, err := bob.Provenance(dstID, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0].SrcDoc != srcID || refs[0].SrcName != "src" || refs[0].Chars != 8 {
		t.Fatalf("provenance of the pasted run: %+v, want all 8 chars from doc %d (src)", refs, srcID)
	}
}

func TestUndoRedoOverWire(t *testing.T) {
	addr, _ := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, _ := c.CreateDocument("undoable")
	d, _ := c.Open(docID)
	// Undo and redo carry positional items: the replica folds them like
	// any edit and never resyncs.
	var resyncs atomic.Int32
	d.Watch(func(ev protocol.Event) {
		if ev.Kind == "resync" {
			resyncs.Add(1)
		}
	})
	base := d.Seq()
	d.Insert(0, "first ")
	d.Insert(6, "second")
	if err := d.Undo(protocol.ScopeLocal); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitSeq(base+3, 500); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "first " {
		t.Fatalf("after undo: %q", d.Text())
	}
	if err := d.Redo(protocol.ScopeLocal); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitSeq(base+4, 500); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "first second" {
		t.Fatalf("after redo: %q", d.Text())
	}
	if n := resyncs.Load(); n != 0 {
		t.Fatalf("replica resynced %d times over undo/redo", n)
	}
}

func TestVersionsOverWire(t *testing.T) {
	addr, _ := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, _ := c.CreateDocument("versioned")
	d, _ := c.Open(docID)
	d.Insert(0, "v1 text")
	if err := d.CreateVersion("first"); err != nil {
		t.Fatal(err)
	}
	d.Insert(0, "newer ")
	vs, err := d.Versions()
	if err != nil || len(vs) != 1 {
		t.Fatalf("versions = %v, %v", vs, err)
	}
	text, err := d.VersionText(vs[0].ID)
	if err != nil || text != "v1 text" {
		t.Fatalf("version text = %q, %v", text, err)
	}
}

func TestPresenceAndCursor(t *testing.T) {
	addr, _ := harness(t, false)
	alice := login(t, addr, "alice", "")
	bob := login(t, addr, "bob", "")
	docID, _ := alice.CreateDocument("aware")
	da, _ := alice.Open(docID)
	dbob, _ := bob.Open(docID)
	da.Insert(0, "watch my cursor")
	if err := dbob.MoveCursor(5); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		ps, err := da.Presence()
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) == 2 {
			for _, p := range ps {
				if p.User == "bob" && p.Cursor == 5 {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("presence = %+v", ps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHistoryOverWire(t *testing.T) {
	addr, _ := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, _ := c.CreateDocument("hist")
	d, _ := c.Open(docID)
	d.Insert(0, "abc")
	d.Delete(0, 1)
	hist, err := d.History()
	if err != nil || len(hist) != 2 {
		t.Fatalf("history = %v, %v", hist, err)
	}
	if hist[0].Kind != "insert" || hist[1].Kind != "delete" {
		t.Fatalf("history kinds = %v", hist)
	}
}

func TestEditorHeadless(t *testing.T) {
	addr, _ := harness(t, false)
	alice := login(t, addr, "alice", "")
	docID, _ := alice.CreateDocument("edited")
	d, _ := alice.Open(docID)
	ed := editor.New(d)
	base := d.Seq()

	if err := ed.Type("Hello world"); err != nil {
		t.Fatal(err)
	}
	d.WaitSeq(base+1, 500)
	if ed.Cursor() != 11 {
		t.Fatalf("cursor = %d", ed.Cursor())
	}
	if err := ed.Backspace(); err != nil {
		t.Fatal(err)
	}
	d.WaitSeq(base+2, 500)
	if d.Text() != "Hello worl" {
		t.Fatalf("text = %q", d.Text())
	}
	if err := ed.Select(0, 5); err != nil {
		t.Fatal(err)
	}
	clip, err := ed.Copy()
	if err != nil || clip.Text != "Hello" {
		t.Fatalf("clip = %v, %v", clip, err)
	}
	if err := ed.Bold(); err != nil {
		t.Fatal(err)
	}
	ed.MoveTo(d.Len())
	if err := ed.Paste(clip); err != nil {
		t.Fatal(err)
	}
	// Events so far: insert, delete, layout(Bold), cursor(MoveTo), paste.
	d.WaitSeq(base+5, 500)
	if d.Text() != "Hello worlHello" {
		t.Fatalf("after paste: %q", d.Text())
	}
	view := ed.Render(40)
	if !strings.Contains(view, "▎") {
		t.Fatal("render has no cursor")
	}
	if err := ed.Undo(); err != nil {
		t.Fatal(err)
	}
	d.WaitSeq(base+6, 500)
	if d.Text() != "Hello worl" {
		t.Fatalf("after editor undo: %q", d.Text())
	}
}

func TestReplicaResyncAfterGap(t *testing.T) {
	addr, eng, _, srv := harnessSrv(t, false)
	alice := login(t, addr, "alice", "")
	docID, _ := alice.CreateDocument("gapdoc")
	d, _ := alice.Open(docID)

	// Server-side edits through the engine directly do not go through
	// alice's connection but are pushed, undo included. Baselines are relative: the subscription's join event already
	// consumed a sequence number.
	srvDoc, _ := eng.OpenDocument(util.ID(docID))
	base := d.Seq()
	srvDoc.InsertText("ghost", 0, "server side text")
	if err := d.WaitSeq(base+1, 500); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "server side text" {
		t.Fatalf("replica = %q", d.Text())
	}
	base = d.Seq()
	srvDoc.UndoLocal("ghost")
	if err := d.WaitSeq(base+1, 500); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "" {
		t.Fatalf("replica after remote undo = %q", d.Text())
	}

	// A gap: alice's subscription is dropped server-side, an edit commits
	// unseen, and the resubscription's join reaches her replica with the
	// sequence numbers in between missing. The replica resyncs and says so.
	resynced := make(chan protocol.Event, 1) // the one resync the gap causes
	d.Watch(func(ev protocol.Event) {
		if ev.Kind == "resync" {
			resynced <- ev
		}
	})
	srv.mu.Lock()
	var ac *conn
	for c := range srv.conns {
		ac = c
	}
	srv.mu.Unlock()
	ac.unsubscribe(util.ID(docID))
	srvDoc.InsertText("ghost", 0, "unseen")
	if resp := ac.subscribe(&protocol.Message{Doc: docID}); !resp.OK {
		t.Fatalf("resubscribe: %s", resp.Err)
	}
	select {
	case ev := <-resynced:
		if ev.Name != "gap" {
			t.Fatalf("resync cause %q, want gap", ev.Name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the gap never led to a resync")
	}
	if d.Text() != "unseen" {
		t.Fatalf("replica after the gap = %q", d.Text())
	}
}

// throttleHarness is harness with rate limits installed before any
// connection exists (zero rates mean unlimited).
func throttleHarness(t *testing.T, editRate, subRate float64) (addr string, srv *Server, eng *core.Engine) {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err = core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv = New(eng, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	srv.SetRateLimit(editRate, subRate)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		database.Close()
	})
	return a.String(), srv, eng
}

// TestEditThrottleTypedError pins the rate-limit contract for the
// positional edits, each a one-op edit batch — append, paste, layout and
// note: past the burst allowance an edit is rejected with the typed
// "throttled" code carrying a positive retry-after hint, the rejection is
// counted, the document never sees the rejected edit, and a rejected
// request drains no budget.
func TestEditThrottleTypedError(t *testing.T) {
	for _, tc := range []struct {
		op    string
		chars int // characters one accepted edit adds
		edit  func(d *client.Doc, clip *protocol.Clip) error
	}{
		{"append", 1, func(d *client.Doc, _ *protocol.Clip) error { return d.Append("x") }},
		{"paste", 1, func(d *client.Doc, clip *protocol.Clip) error { return d.Paste(0, clip) }},
		{"layout", 0, func(d *client.Doc, _ *protocol.Clip) error { return d.Layout(0, 1, "bold", "true") }},
		{"note", 0, func(d *client.Doc, _ *protocol.Clip) error { return d.Note(0, "nb") }},
	} {
		t.Run(tc.op, func(t *testing.T) {
			t.Run("v3-binary", func(t *testing.T) { throttleTyped(t, tc.chars, tc.edit) })
		})
	}
}

// throttleTyped is one TestEditThrottleTypedError case.
func throttleTyped(t *testing.T, chars int, edit func(d *client.Doc, clip *protocol.Clip) error) {
	addr, srv, _ := throttleHarness(t, 10, 0) // 10 edits/s, burst 20
	c := login(t, addr, "spammer", "")
	docID, err := c.CreateDocument("busy")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append("s"); err != nil { // something to copy, span and annotate
		t.Fatal(err)
	}
	clip, err := d.Copy(0, 1)
	if err != nil {
		t.Fatal(err)
	}

	var throttled *client.ThrottledError
	accepted := 0
	for i := 0; i < 200 && throttled == nil; i++ {
		err := edit(d, clip)
		switch {
		case err == nil:
			accepted++
		case errors.As(err, &throttled):
		default:
			t.Fatalf("edit %d: unexpected error %v", i, err)
		}
	}
	if throttled == nil {
		t.Fatalf("200 instant edits all accepted at 10 edits/s (%d committed)", accepted)
	}
	if accepted == 0 {
		t.Fatal("burst allowance admitted nothing")
	}
	if throttled.RetryAfter <= 0 {
		t.Fatalf("throttled without a retry-after hint: %v", throttled)
	}
	if got := srv.Metrics().Throttles.Load(); got == 0 {
		t.Fatal("throttle rejections not counted")
	}
	// Rejections drain nothing: after a run of them, waiting out the
	// last hint is still enough for the next edit.
	for i := 0; i < 5; i++ {
		if err := edit(d, clip); err == nil {
			accepted++
		} else if !errors.As(err, &throttled) {
			t.Fatal(err)
		}
	}
	time.Sleep(throttled.RetryAfter + 5*time.Millisecond)
	if err := edit(d, clip); err != nil {
		t.Fatalf("edit after waiting out the hint: %v", err)
	}
	accepted++
	// The rejection is per-request, not per-connection: the session
	// stays usable and the committed text reflects only accepted edits.
	text, err := d.Read()
	if err != nil {
		t.Fatalf("connection dead after throttle: %v", err)
	}
	if want := 1 + accepted*chars; len(text) != want {
		t.Fatalf("committed %d chars, want %d (%d accepted)", len(text), want, accepted)
	}
}

// TestSubscribeThrottle covers the subscription-storm limiter: repeated
// subscribe ops past the burst are rejected with the typed code while the
// connection survives.
func TestSubscribeThrottle(t *testing.T) {
	addr, _, _ := throttleHarness(t, 0, 1) // 1 subscribe/s, burst 2
	c := login(t, addr, "storm", "")
	ids := make([]uint64, 8)
	for i := range ids {
		id, err := c.CreateDocument(fmt.Sprintf("doc-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var throttled *client.ThrottledError
	for _, id := range ids {
		if _, err := c.Open(id); err != nil {
			if errors.As(err, &throttled) {
				break
			}
			t.Fatalf("open: %v", err)
		}
	}
	if throttled == nil {
		t.Fatal("8 instant subscribes all accepted at 1 subscribe/s")
	}
}

// TestSubscriberLaggingWithinRingConverges pins the backpressure contract
// below the ring's reach: a reader that stops reading while the document
// takes fewer events than the op ring retains loses nothing. Once it reads
// again the replica converges byte-for-byte from the pushes alone, with no
// shed, no heal, no lagged notice and no resync.
func TestSubscriberLaggingWithinRingConverges(t *testing.T) {
	addr, srv, eng := throttleHarness(t, 0, 0)
	const retention = 64
	eng.Bus().SetRetention(retention)

	reader := login(t, addr, "reader", "")
	docID, err := reader.CreateDocument("flood")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reader.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	// The watcher runs on the connection's read loop: holding it in the
	// first callback stops the reader from reading anything more.
	stalled, resume := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(resume) })
	t.Cleanup(release)
	var once sync.Once
	var resyncs atomic.Int32
	rd.Watch(func(ev protocol.Event) {
		if ev.Kind == "resync" {
			resyncs.Add(1)
		}
		once.Do(func() {
			close(stalled)
			<-resume
		})
	})

	// Everything since the reader subscribed — its own join and these
	// edits — stays under the ring's retention.
	srvDoc, err := eng.OpenDocument(util.ID(docID))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < retention-4; i++ {
		if _, err := srvDoc.InsertText("ghost", 0, "y"); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-stalled
		}
	}
	wantSeq := eng.Bus().Seq(util.ID(docID))
	if rd.Seq() >= wantSeq {
		t.Fatalf("the stalled reader is not behind: seq %d of %d", rd.Seq(), wantSeq)
	}
	release()
	if err := rd.WaitSeq(wantSeq, 5000); err != nil {
		t.Fatalf("replica stuck at seq %d, want %d: %v", rd.Seq(), wantSeq, err)
	}
	if got, want := rd.Text(), srvDoc.Text(); got != want {
		t.Fatalf("replica diverged:\n want %d chars\n got  %d chars", len(want), len(got))
	}
	m := srv.Metrics()
	if m.Sheds.Load() != 0 || m.Heals.Load() != 0 || rd.Lagged() || resyncs.Load() != 0 {
		t.Fatalf("a lag within the ring took a recovery path: sheds=%d heals=%d lagged=%v resyncs=%d",
			m.Sheds.Load(), m.Heals.Load(), rd.Lagged(), resyncs.Load())
	}
}
