// Multi-shard serving and the presence-after-heal regression.
//
// The cluster tests run the server over several independent engine shards
// (each with its own WAL and commit pipeline) and require the sharding to
// be invisible on the wire: mixed-generation clients edit documents placed
// on different shards and every replica converges byte-for-byte.
//
// The presence test pins an old heal bug: when a subscriber's gap
// outlives the retention ring, the full resync restores text but the
// presence updates inside the gap are gone forever. The fix pushes a
// synthetic roster snapshot after every heal.
package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/client"
	"tendax/internal/placement"
	"tendax/internal/protocol"
	"tendax/internal/util"
)

// clusterHarness starts a server over an in-memory N-shard placement
// cluster and returns its address alongside the cluster.
func clusterHarness(t *testing.T, shards int) (addr string, cl *placement.Cluster, srv *Server) {
	t.Helper()
	cl, err := placement.Open(placement.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	srv = NewCluster(cl, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		cl.Close()
	})
	return a.String(), cl, srv
}

// TestMultiShardConvergence runs concurrent session typists and a
// positional editor against documents spread across four shards and
// requires (a) the shard count to reach every client's hello, (b) every
// edit to be durably acked,
// and (c) byte-for-byte convergence of every replica with the owning
// shard's committed text.
func TestMultiShardConvergence(t *testing.T) {
	addr, cl, srv := clusterHarness(t, 4)

	admin := login(t, addr, "admin", "")
	if got := admin.ShardCount(); got != 4 {
		t.Fatalf("hello advertised %d shards, want 4", got)
	}

	// Round-robin creation must touch every shard.
	const nDocs = 8
	docIDs := make([]uint64, nDocs)
	onShard := make(map[int]int)
	for i := range docIDs {
		id, err := admin.CreateDocument(fmt.Sprintf("sharded-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		docIDs[i] = id
		onShard[cl.ShardFor(util.ID(id))]++
	}
	if len(onShard) != 4 {
		t.Fatalf("%d docs landed on only %d of 4 shards (%v)", nDocs, len(onShard), onShard)
	}

	// Two v3 typists per document, all racing across shard boundaries.
	perTypist := 30
	if testing.Short() {
		perTypist = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, nDocs*2)
	typist := func(user string, docID uint64, text string) {
		defer wg.Done()
		c := login(t, addr, user, "")
		d, err := c.Open(docID)
		if err != nil {
			errs <- fmt.Errorf("%s open: %v", user, err)
			return
		}
		s, err := d.Session()
		if err != nil {
			errs <- fmt.Errorf("%s session: %v", user, err)
			return
		}
		for i := 0; i < perTypist; i++ {
			if err := s.Type(text); err != nil {
				errs <- fmt.Errorf("%s type: %v", user, err)
				return
			}
		}
		// Wait returns only after every flushed batch has been acked by
		// the owning shard's commit pipeline — the durable-ack check.
		if err := s.Wait(); err != nil {
			errs <- fmt.Errorf("%s durable ack: %v", user, err)
		}
	}
	for i, id := range docIDs {
		wg.Add(2)
		go typist(fmt.Sprintf("ann-%d", i), id, "a")
		go typist(fmt.Sprintf("bob-%d", i), id, "b")
	}
	// A third client interleaves positional edits on two documents that
	// live on different shards.
	pc := login(t, addr, "positional", "")
	var pd [2]*client.Doc
	for i := range pd {
		d, err := pc.Open(docIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		pd[i] = d
	}
	for i := 0; i < perTypist; i++ {
		if err := pd[0].Insert(0, "v"); err != nil {
			t.Fatal(err)
		}
		if err := pd[1].Insert(0, "w"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The owning shard's committed text is the truth per document; every
	// shard has processed exactly its own documents' keystrokes.
	for i, id := range docIDs {
		doc, err := cl.OpenDocument(util.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		want := 2 * perTypist
		if i < 2 {
			want += perTypist
		}
		if got := len(doc.Text()); got != want {
			t.Fatalf("doc %d committed %d chars, want %d", i, got, want)
		}
		// Replica convergence: a fresh v3 reader must fetch the same bytes
		// the shard holds.
		ad, err := admin.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ad.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != doc.Text() {
			t.Fatalf("doc %d replica diverged from shard %d", i, cl.ShardFor(util.ID(id)))
		}
	}

	// Per-shard metrics saw traffic on every shard.
	for s := 0; s < 4; s++ {
		sc := srv.Metrics().Shard(s)
		if sc == nil {
			t.Fatalf("shard %d counters not enabled", s)
		}
		if sc.Batches.Load() == 0 || sc.Keystrokes.Load() == 0 {
			t.Fatalf("shard %d counted no traffic (batches=%d keys=%d)",
				s, sc.Batches.Load(), sc.Keystrokes.Load())
		}
	}
}

// TestV1EditsCountedOnMetrics pins that the paper's positional edits —
// version 1's single-op requests, now one-op edit batches — are counted
// all the way to the scrape: a typist's inserts, appends and pastes show
// up in keystrokes, and every one of its edits in batches/ops, globally
// and on the owning shard's counters alone.
func TestV1EditsCountedOnMetrics(t *testing.T) {
	addr, cl, srv := clusterHarness(t, 2)
	c := login(t, addr, "positional", "")
	doc, err := c.CreateDocument("counted")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(0, "héllo"); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(" world"); err != nil {
		t.Fatal(err)
	}
	clip, err := d.Copy(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		d.Paste(0, clip),
		d.Delete(0, 2),
		d.Layout(0, 3, "bold", "true"),
		d.Note(0, "nb"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	const edits, keys = 6, 5 + 6 + 5 // runes, not bytes

	m := srv.Metrics()
	if b, o, k := m.Batches.Load(), m.Ops.Load(), m.Keystrokes.Load(); b != edits || o != edits || k != keys {
		t.Fatalf("server counted batches=%d ops=%d keystrokes=%d, want %d/%d/%d", b, o, k, edits, edits, keys)
	}
	own := cl.ShardFor(util.ID(doc))
	for s := 0; s < 2; s++ {
		sc := m.Shard(s)
		wantEdits, wantKeys := int64(0), int64(0)
		if s == own {
			wantEdits, wantKeys = edits, keys
		}
		if b, o, k := sc.Batches.Load(), sc.Ops.Load(), sc.Keystrokes.Load(); b != wantEdits || o != wantEdits || k != wantKeys {
			t.Fatalf("shard %d (owner %d) counted batches=%d ops=%d keystrokes=%d, want %d/%d/%d",
				s, own, b, o, k, wantEdits, wantEdits, wantKeys)
		}
	}
}

// TestPresenceSnapshotAfterHeal is the regression test for a heal bug:
// presence churn skipped along with edit events used to be lost when the
// gap outlived the retention ring — the full resync restored the text but
// the replica's roster kept departed users and missed arrivals forever.
// The fix pushes a Bus.Present snapshot after every heal.
//
// The gap is forced, not hoped for: the reader stops reading, the bus is
// flooded until the reader's cursor is further behind than the 16-event
// ring reaches, and only then does the roster churn and the text change.
func TestPresenceSnapshotAfterHeal(t *testing.T) {
	addr, srv, eng := throttleHarness(t, 0, 0)
	bus := eng.Bus()
	const retention = 16
	bus.SetRetention(retention)

	reader := login(t, addr, "reader", "")
	docID, err := reader.CreateDocument("heal-presence")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reader.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	doc := util.ID(docID)

	// Prime the replica's roster with a peer it will have to forget.
	bus.Join(doc, "peer-stale", time.Now())
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := rd.Peers()["peer-stale"]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never saw the primed peer; roster %v", rd.Peers())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Stop the reader: the watcher runs on its connection's read loop.
	stalled, resume := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(resume) })
	t.Cleanup(release)
	var once sync.Once
	var lagMu sync.Mutex
	var lagged []int // N of each "lagged" resync the replica tells
	rd.Watch(func(ev protocol.Event) {
		once.Do(func() {
			close(stalled)
			<-resume
		})
		if ev.Kind == "resync" && ev.Name == "lagged" {
			lagMu.Lock()
			lagged = append(lagged, ev.N)
			lagMu.Unlock()
		}
	})
	sub := serverSub(t, srv, doc)
	// Feed the pump large cursor events (a long user name; the text does
	// not grow) one at a time, each taken before the next is published,
	// until one is not taken: the socket is full and the pump is stuck
	// writing. Then push its cursor out of the ring's reach. From here on
	// the gap is certain, and it covers everything published before the
	// reader reads again.
	flooder := strings.Repeat("f", 8<<10)
	for i := 0; sub.Depth() == 0; i++ {
		bus.MoveCursor(doc, flooder, i, time.Now())
		if i == 0 {
			<-stalled
		}
		for deadline := time.Now().Add(200 * time.Millisecond); sub.Depth() > 0 && time.Now().Before(deadline); {
			time.Sleep(20 * time.Microsecond)
		}
		if i > 100_000 {
			t.Fatal("the stalled reader's socket never filled")
		}
	}
	for sub.Depth() <= retention {
		bus.MoveCursor(doc, flooder, -1, time.Now())
	}
	// Inside the gap: peer-stale leaves, peer-new arrives and moves, the
	// flooder leaves, and the text changes.
	bus.Leave(doc, "peer-stale", time.Now())
	bus.Join(doc, "peer-new", time.Now())
	bus.MoveCursor(doc, "peer-new", 7, time.Now())
	bus.Leave(doc, flooder, time.Now())
	srvDoc, err := eng.OpenDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvDoc.InsertText("ghost", 0, "healed"); err != nil {
		t.Fatal(err)
	}
	release()

	wantSeq := bus.Seq(doc)
	if err := rd.WaitSeq(wantSeq, 5000); err != nil {
		t.Fatalf("replica stuck at seq %d, want %d: %v", rd.Seq(), wantSeq, err)
	}
	if got, want := rd.Text(), srvDoc.Text(); got != want {
		t.Fatalf("replica text after the heal = %q, want %q", got, want)
	}
	if !rd.Lagged() {
		t.Fatal("the gap reached the replica without a lagged notice")
	}
	if m := srv.Metrics(); m.Sheds.Load() == 0 || m.Heals.Load() == 0 {
		t.Fatalf("sheds=%d heals=%d after a forced gap", m.Sheds.Load(), m.Heals.Load())
	}

	// The roster must match the server's live presence map exactly:
	// reader at 0, peer-new at its last cursor, nobody else.
	expect := map[string]int{"reader": 0, "peer-new": 7}
	live := make(map[string]int)
	for _, p := range bus.Present(doc) {
		live[p.User] = p.Cursor
	}
	if !peersEqual(live, expect) {
		t.Fatalf("server presence %v, want %v; test harness broken", live, expect)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		got := rd.Peers()
		if peersEqual(got, expect) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("roster never healed:\n got  %v\n want %v", got, expect)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The lagged pushes say how many events the ring evicted unread, and
	// the replica passes the count on: together they are the reader's sheds.
	sheds := sub.Sheds()
	deadline = time.Now().Add(2 * time.Second)
	for {
		lagMu.Lock()
		got := append([]int(nil), lagged...)
		lagMu.Unlock()
		sum := 0
		for _, n := range got {
			sum += n
		}
		if len(got) > 0 && int64(sum) == sheds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lagged resyncs counted %v evicted events, the reader shed %d", got, sheds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serverSub returns the one server-side subscription to doc.
func serverSub(t *testing.T, srv *Server, doc util.ID) *awareness.Subscription {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for c := range srv.conns {
		c.mu.Lock()
		sub := c.subs[doc]
		c.mu.Unlock()
		if sub != nil {
			return sub
		}
	}
	t.Fatalf("no connection subscribes to doc %d", doc)
	return nil
}

func peersEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
