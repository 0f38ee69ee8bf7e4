package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"tendax/internal/awareness"
	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/util"
	"tendax/internal/workload"
)

// spec is one workload at the reference scale (-seconds equal to
// run_seconds in BENCHMARK.json). Every count below is fixed work: a pass
// runs the same operation sequence however long it takes, so a slower
// build does the same work in more time rather than less work.
type spec struct {
	name      string
	corpus    int // documents of the surrounding document space, built first in set-up
	docs      int // workload documents, typed into one after another
	visible   int // characters each is built to in set-up
	deleted   int // tombstones each carries besides
	keys      int // keys each of the two authors types into each document
	cadence       // how they type them
	probeKeys int // keys each author types in the paced probe after the main phase; 0 = the main phase is paced
	mixedOps  int // mixed ops per author: main phase of bigdoc_mixed, probe tail elsewhere
}

// cadence is how an author types a run of keys.
type cadence struct {
	rate      float64 // open loop: keys per second; 0 = closed loop, next key as soon as the last returned
	saveEvery int     // every n-th key is a save point (Session.Wait)
}

// paced is the cadence of interactive typing, and of the paced probe every
// other workload runs on its document after its main phase: 100 keys/s per
// author, a save point every 5th key. peer_visible_p50_ms is always
// measured at this cadence, where a fixed offered rate leaves the system
// mostly idle and the host's speed moves only the smaller part of the
// latency; what a key costs on a saturated system is the per-layer
// client.peer_visible_busy_p50_ms.
var paced = cadence{rate: 100, saveEvery: 5}

var specs = []spec{
	{name: "interactive", corpus: 50, docs: 1, visible: 20000, keys: 400, cadence: paced, mixedOps: 150},
	{name: "lockstep", corpus: 50, docs: 1, visible: 20000, keys: 5000, cadence: cadence{saveEvery: 1}, probeKeys: 100, mixedOps: 150},
	{name: "burst", corpus: 50, docs: 2, visible: 30000, keys: 30000, cadence: cadence{saveEvery: 1024}, probeKeys: 100, mixedOps: 80},
	{name: "bigdoc_mixed", corpus: 50, docs: 1, visible: 30000, deleted: 30000, probeKeys: 100, mixedOps: 400},
}

// corpusMeanSize sizes the documents of the surrounding document space that
// set-up builds for search to rank over: five size classes around it, about
// 150k characters in fifty documents.
const corpusMeanSize = 2000

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks (or grows) every count by f, keeping each at least large
// enough for the phase to exist.
func (s spec) scaled(f float64) spec {
	sc := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if m := int(float64(n) * f); m > floor {
			return m
		}
		return floor
	}
	s.corpus = sc(s.corpus, 5)
	s.visible = sc(s.visible, 400)
	s.deleted = sc(s.deleted, 400)
	s.keys = sc(s.keys, 40)
	s.probeKeys = sc(s.probeKeys, 20)
	s.mixedOps = sc(s.mixedOps, 20)
	if s.saveEvery > s.keys && s.keys > 0 {
		s.saveEvery = s.keys
	}
	return s
}

// mainKeys is how many keys the main phase gets acknowledged.
func (s spec) mainKeys() int64 {
	if s.keys > 0 {
		return int64(s.docs) * 2 * int64(s.keys)
	}
	return 2 * int64(s.mixedOps/2) * 6 // half the mixed ops are six-key jump edits
}

// author is one co-author: a connection, its replica of the document being
// edited, and the session it types through.
type author struct {
	user  string
	c     *client.Client
	d     *client.Doc
	s     *client.Session
	g     *gen
	clock *keyClock // this author's keys; the peer's replica marks them seen
	opSeq int64     // numbers this author's ops in the trace
}

// samples are the latency samples of one pass, in milliseconds. The slices
// are allocated before the heap baseline is taken.
type samples struct {
	mu                               sync.Mutex
	peer, peerBusy, ack, late        []float64 // peer: at the paced cadence; peerBusy: closed loops and mixed ops
	edit, moveTo, open               []float64
	del, read, search                []float64
	attempted, failed                int
	typedKeys, flushes, laggedCopies int
	resyncs                          int // replicas that had to catch up by resync rather than push
}

func newSamples(s spec) *samples {
	keys := int(s.mainKeys())
	mixed := 2 * s.mixedOps
	return &samples{
		peer: make([]float64, 0, keys+2*s.probeKeys), peerBusy: make([]float64, 0, keys+6*mixed),
		ack:  make([]float64, 0, keys/max(s.saveEvery, 1)+mixed+8),
		late: make([]float64, 0, keys+2*s.probeKeys),
		edit: make([]float64, 0, mixed), moveTo: make([]float64, 0, mixed), open: make([]float64, 0, mixed),
		del: make([]float64, 0, mixed), read: make([]float64, 0, mixed), search: make([]float64, 0, mixed),
	}
}

func (s *samples) add(dst *[]float64, v float64) {
	s.mu.Lock()
	*dst = append(*dst, v)
	s.mu.Unlock()
}

func (s *samples) count(ok bool) {
	s.mu.Lock()
	s.attempted++
	if !ok {
		s.failed++
	}
	s.mu.Unlock()
}

// counters is a reading of every always-on counter, taken at the two ends
// of the main phase.
type counters struct {
	at                                time.Time
	cpu                               time.Duration
	mallocs                           uint64
	walBytes, walAppends, walSyncs    int64
	walAppendNS, walSyncNS            int64
	pageWrites                        int64
	in, out, batches, pushes, strokes int64
}

func (p *passRun) read() counters {
	m := p.st.srv.Metrics()
	return counters{
		at: time.Now(), cpu: cpuTime(), mallocs: mallocs(),
		walBytes: p.st.store.bytes.Load(), walAppends: p.st.store.appends.Load(), walSyncs: p.st.store.syncs.Load(),
		walAppendNS: p.st.store.appendNS.Load(), walSyncNS: p.st.store.syncNS.Load(),
		pageWrites: p.st.disk.writes.Load(),
		in:         m.BytesIn.Load(), out: m.BytesOut.Load(), batches: m.Batches.Load(),
		pushes: m.Pushes.Load(), strokes: m.Keystrokes.Load(),
	}
}

// checkpointer takes fuzzy checkpoints when the count of acknowledged keys
// crosses fixed shares of the main phase, from its own goroutine, so the
// log a crash leaves un-checkpointed is the same number of keys every run.
type checkpointer struct {
	thresholds []int64
	acked      atomic.Int64
	fire       chan struct{}
	done       chan struct{}

	durations []float64 // ms
	removed   int64
	err       error
}

func startCheckpointer(p *passRun, total int64) *checkpointer {
	c := &checkpointer{thresholds: []int64{total / 4, total / 2, total * 3 / 4}, done: make(chan struct{})}
	c.fire = make(chan struct{}, len(c.thresholds)) // one slot per threshold: acknowledging never blocks
	go func() {
		defer close(c.done)
		for range c.fire {
			t0 := time.Now()
			sp := p.tr.begin("db", "fuzzy_checkpoint", 0, 0)
			res, err := p.st.db.FuzzyCheckpoint()
			p.tr.end(sp)
			if err != nil {
				c.err = errors.Join(c.err, err)
				continue
			}
			c.durations = append(c.durations, ms(time.Since(t0)))
			c.removed += res.Removed
		}
	}()
	return c
}

// acknowledged adds n durably acknowledged keys.
func (c *checkpointer) acknowledged(n int) {
	after := c.acked.Add(int64(n))
	before := after - int64(n)
	for _, t := range c.thresholds {
		if before < t && after >= t {
			c.fire <- struct{}{}
		}
	}
}

func (c *checkpointer) stop() error {
	close(c.fire)
	<-c.done
	return c.err
}

// passRun is one pass of a workload: fresh data directory, fresh server,
// fresh clients.
type passRun struct {
	sp   spec
	dir  string
	tr   *tracer
	st   *stack
	g    *gen
	smp  *samples
	a, b *author
	ckpt *checkpointer

	corpus   []*core.Document
	docs     []*core.Document
	acked    map[util.ID]string // text of every workload document when the crash image was taken
	problems []string
	m        map[string]float64
	phases   string // where the pass spent its time, for the reader of the output
}

func (p *passRun) problem(format string, args ...interface{}) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// result is what one pass measured, or one run: the median pass of every
// metric, and the ops and failed checks of all its passes.
type result struct {
	metrics           map[string]float64
	attempted, failed int
	problems          []string
}

// runPass runs one pass of sp in a fresh directory under dataDir. With a
// tracer it also records spans, keeps a harness subscription on the
// document's bus and runs the direct-drive layer replays.
func runPass(sp spec, seed uint64, dataDir string, tr *tracer) (*result, error) {
	p := &passRun{sp: sp, tr: tr, g: newGen(seed), m: map[string]float64{}}
	p.dir = filepath.Join(dataDir, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.RemoveAll(p.dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)
	p.smp = newSamples(sp)
	clockCap := max(sp.keys, sp.mixedOps*6, sp.probeKeys)
	p.a = &author{user: "ann", g: p.g.split(), clock: newKeyClock(clockCap)}
	p.b = &author{user: "bob", g: p.g.split(), clock: newKeyClock(clockCap)}
	heapBefore := settledHeap()

	// Set-up: fresh directory to first main-phase op.
	t0 := time.Now()
	if err := p.setUp(); err != nil {
		if p.st != nil {
			_ = p.st.close()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.m["setup_s"] = time.Since(t0).Seconds()
	err := p.measure(heapBefore)
	p.a.c.Close()
	p.b.c.Close()
	if cerr := p.st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if err := p.recoverCrashImage(); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := p.layers(seed); err != nil {
			return nil, fmt.Errorf("layer replays: %w", err)
		}
	}
	fmt.Printf("  pass: set-up %.2f s, %s, recovery %.0f ms, whole pass %.2f s\n",
		p.m["setup_s"], p.phases, p.m["db.recovery_ms"], time.Since(t0).Seconds())
	return &result{metrics: p.m, attempted: p.smp.attempted, failed: p.smp.failed, problems: p.problems}, nil
}

func (p *passRun) setUp() error {
	var err error
	if p.st, err = openStack(filepath.Join(p.dir, "live"), p.tr); err != nil {
		return err
	}
	p.corpus, err = workload.BuildCorpus(p.st.eng, workload.CorpusSpec{
		Docs: p.sp.corpus, Users: 8, MeanSize: corpusMeanSize, StateSplit: 0.2,
		Clusters: 5, // sizes, authors and reads by cluster, so every seed builds the same amount
		Seed:     p.g.rng.Uint64(),
	})
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	for i := 0; i < p.sp.docs; i++ {
		d, err := p.st.eng.CreateDocument("import", fmt.Sprintf("%s-%d", p.sp.name, i))
		if err != nil {
			return err
		}
		if err := buildDocument(d, p.g, p.sp.visible, p.sp.deleted); err != nil {
			return fmt.Errorf("build %s: %w", d.Name(), err)
		}
		p.docs = append(p.docs, d)
	}
	for _, a := range []*author{p.a, p.b} {
		if a.c, err = dial(p.st.addr, a.user); err != nil {
			return fmt.Errorf("dial %s: %w", a.user, err)
		}
	}
	return p.openDocument(p.docs[0])
}

// openDocument points both authors at d: a replica, a session with the
// default flush limits, and a watcher that stamps the peer's keys as the
// replica folds them. Ann types a third of the way in and Bob two thirds,
// so neither appends at the end and each splices inside the other's view.
func (p *passRun) openDocument(d *core.Document) error {
	for i, a := range []*author{p.a, p.b} {
		peer := p.b
		if a == p.b {
			peer = p.a
		}
		doc, err := a.c.Open(uint64(d.ID()))
		if err != nil {
			return fmt.Errorf("%s: open: %w", a.user, err)
		}
		doc.Watch((&peerWatch{doc: doc, peer: peer.user, clock: peer.clock, smp: p.smp}).on)
		s, err := doc.Session()
		if err != nil {
			return fmt.Errorf("%s: session: %w", a.user, err)
		}
		if err := s.MoveTo(doc.Len() * (i + 1) / 3); err != nil {
			return fmt.Errorf("%s: move: %w", a.user, err)
		}
		a.d, a.s = doc, s
	}
	return nil
}

// peerWatch is the watcher on one replica: it stamps the peer's keys as
// the replica folds them. Keys normally arrive one event per callback; when
// the replica had to resync (the server shed its queue, or it saw a gap),
// the missed events were folded without a callback each and the watcher is
// told "resync" once, so it reads them out of the replica's event log.
// Events are told apart by sequence number, because the two paths call from
// different goroutines.
type peerWatch struct {
	doc   *client.Doc
	peer  string
	clock *keyClock
	smp   *samples

	mu      sync.Mutex
	lastSeq uint64
}

func (w *peerWatch) on(ev protocol.Event) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	switch ev.Kind {
	case protocol.EvPresence:
		return // a roster snapshot: outside the document's event sequence
	case "resync":
		w.smp.mu.Lock()
		w.smp.resyncs++
		w.smp.mu.Unlock()
		for _, e := range w.doc.Events() {
			w.fold(&e, now)
		}
		return
	}
	w.fold(&ev, now)
}

func (w *peerWatch) fold(ev *protocol.Event, now time.Time) {
	if ev.Seq <= w.lastSeq {
		return
	}
	w.lastSeq = ev.Seq
	if ev.User != w.peer {
		return
	}
	if n := insertedRunes(ev); n > 0 {
		w.clock.markSeen(now, n)
	}
}

// insertedRunes counts the characters an event adds to a replica.
func insertedRunes(ev *protocol.Event) int {
	switch ev.Kind {
	case "insert", "paste":
		return utf8.RuneCountInString(ev.Text)
	case "batch":
		n := 0
		for _, it := range ev.Batch {
			if it.Kind == "insert" || it.Kind == "paste" {
				n += utf8.RuneCountInString(it.Text)
			}
		}
		return n
	}
	return 0
}

// both runs fn for Ann and Bob on their own goroutines and joins errors.
func (p *passRun) both(fn func(a *author) error) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, a := range []*author{p.a, p.b} {
		wg.Add(1)
		go func(i int, a *author) {
			defer wg.Done()
			errs[i] = fn(a)
		}(i, a)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// measure runs the main phase, the probe tail, every output check on the
// live system and the crash image.
func (p *passRun) measure(heapBefore uint64) error {
	var sub *awareness.Subscription
	var subDone chan struct{}
	if p.tr != nil {
		// The harness's own subscription on the document's bus: it only
		// drains, and reports how deep its queue got and what it shed.
		sub = p.st.eng.Bus().Subscribe(p.docs[len(p.docs)-1].ID(),
			awareness.SubscribeOpts{OverflowPolicy: awareness.ShedAndResync})
		subDone = make(chan struct{})
		go func() {
			defer close(subDone)
			for {
				if _, ok := sub.Next(); !ok {
					return
				}
			}
		}()
	}

	keys := p.sp.mainKeys()
	p.ckpt = startCheckpointer(p, keys)
	flushes0, typed0 := p.sessionTotals()
	before := p.read()
	var err error
	if p.sp.keys > 0 {
		err = p.typingPhase()
	} else {
		err = p.mixedPhase()
	}
	after := p.read()
	if cerr := p.ckpt.stop(); err == nil && cerr != nil {
		err = fmt.Errorf("checkpoint: %w", cerr)
	}
	if err != nil {
		return fmt.Errorf("main phase: %w", err)
	}
	flushes1, typed1 := p.sessionTotals()
	wall := after.at.Sub(before.at)
	p.phases = fmt.Sprintf("main phase %.2f s", wall.Seconds())
	fkeys := float64(keys)
	m := p.m
	m["server.durable_keys_per_s"] = fkeys / wall.Seconds()
	m["server.cpu_us_per_key"] = us(after.cpu-before.cpu) / fkeys
	m["allocs_per_key"] = float64(after.mallocs-before.mallocs) / fkeys
	m["wal_bytes_per_key"] = float64(after.walBytes-before.walBytes) / fkeys
	m["wire_bytes_per_key"] = float64(after.in-before.in+after.out-before.out) / fkeys
	if got := after.strokes - before.strokes; got != keys {
		p.problem("the server committed %d keys in the main phase, the workload typed %d", got, keys)
	}

	batches := float64(after.batches - before.batches)
	syncs := float64(after.walSyncs - before.walSyncs)
	appends := float64(after.walAppends - before.walAppends)
	m["client.keys_per_flush"] = ratio(float64(typed1-typed0), float64(flushes1-flushes0))
	m["server.keys_per_batch"] = ratio(fkeys, batches)
	m["server.pushes_per_batch"] = ratio(float64(after.pushes-before.pushes), batches)
	m["server.bytes_in_per_key"] = float64(after.in-before.in) / fkeys
	m["server.bytes_out_per_key"] = float64(after.out-before.out) / fkeys
	m["wal.appends_per_key"] = appends / fkeys
	m["wal.syncs_per_key"] = syncs / fkeys
	m["wal.bytes_per_sync"] = ratio(float64(after.walBytes-before.walBytes), syncs)
	m["wal.append_us"] = ratio(float64(after.walAppendNS-before.walAppendNS)/1e3, appends)
	m["wal.sync_us"] = ratio(float64(after.walSyncNS-before.walSyncNS)/1e3, syncs)
	m["storage.page_writes_per_kkey"] = float64(after.pageWrites-before.pageWrites) / fkeys * 1000
	m["db.checkpoint_ms"] = mean(p.ckpt.durations)
	m["db.checkpoint_removed_bytes"] = float64(p.ckpt.removed)
	if len(p.ckpt.durations) != len(p.ckpt.thresholds) {
		p.problem("%d checkpoints ran, %d were due", len(p.ckpt.durations), len(p.ckpt.thresholds))
	}

	// Index freshness: how far behind the op stream the indexer was when
	// the last key was acknowledged, as the time Sync takes to catch up.
	ix := p.st.cl.Index()
	m["index.lag_docs"] = float64(ix.Stats().Lag)
	t0 := time.Now()
	sp := p.tr.begin("index", "sync", 0, 0)
	ix.Sync()
	p.tr.end(sp)
	m["index.sync_ms"] = ms(time.Since(t0))

	last := p.docs[len(p.docs)-1]
	if err := p.converged(last); err != nil {
		return err
	}
	p.drainClocks(p.mainPeerSamples())
	if p.sp.probeKeys > 0 {
		probeStart := time.Now()
		if err := p.pacedProbe(last); err != nil {
			return err
		}
		p.phases += fmt.Sprintf(", paced probe %.2f s", time.Since(probeStart).Seconds())
	}
	if p.sp.keys > 0 {
		// Probe tail: the mixed ops on the document the typing left, so
		// the jump-edit, late-join and read-side numbers exist on every
		// workload and show how they scale with its size.
		tailStart := time.Now()
		if err := p.mixedPhase(); err != nil {
			return fmt.Errorf("probe tail: %w", err)
		}
		if err := p.converged(last); err != nil {
			return err
		}
		p.phases += fmt.Sprintf(", probe tail %.2f s", time.Since(tailStart).Seconds())
		p.drainClocks(&p.smp.peerBusy)
	}
	if p.tr != nil {
		ix.Sync()
		p.indexLayer()
	}
	if err := p.crashTail(last); err != nil {
		return err
	}

	st := ix.Stats()
	m["index.applied_ops"] = float64(st.Applied)
	m["index.heals"] = float64(st.Heals)
	sm := p.st.srv.Metrics()
	m["server.sheds"] = float64(sm.Sheds.Load())
	m["server.heals"] = float64(sm.Heals.Load())
	m["server.throttles"] = float64(sm.Throttles.Load())
	if n := sm.Throttles.Load(); n != 0 {
		p.problem("the server throttled %d requests", n)
	}
	if sub != nil {
		m["awareness.sub_max_depth"] = float64(sub.MaxDepth())
		m["awareness.sub_sheds"] = float64(sub.Sheds())
		sub.Close()
		<-subDone
	}
	m["client.resyncs"] = float64(p.smp.resyncs)
	m["client.lagged_replicas"] = float64(p.smp.laggedCopies)
	if p.smp.laggedCopies != 0 {
		p.problem("%d replicas were cut off by the server and had to refetch", p.smp.laggedCopies)
	}
	hits, misses := p.st.db.Pool().Stats()
	m["storage.pool_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	m["storage.page_reads"] = float64(p.st.disk.reads.Load())
	m["storage.disk_syncs"] = float64(p.st.disk.syncs.Load())
	if sz, err := p.st.db.Log().SizeBytes(); err == nil {
		m["wal.log_bytes_end"] = float64(sz)
	}

	p.latencies()

	chars := 0
	for _, d := range append(append([]*core.Document(nil), p.corpus...), p.docs...) {
		chars += d.Len()
	}
	m["heap_bytes_per_char"] = (float64(settledHeap()) - float64(heapBefore)) / float64(chars)
	runtime.KeepAlive(p.smp)

	p.acked = make(map[util.ID]string, len(p.docs))
	for _, d := range p.docs {
		p.acked[d.ID()] = d.Text()
	}
	return p.st.crashImage(filepath.Join(p.dir, "crash"))
}

func (p *passRun) sessionTotals() (flushes, typed int) {
	return p.smp.flushes + p.a.s.Flushes() + p.b.s.Flushes(), p.smp.typedKeys + p.a.s.Typed() + p.b.s.Typed()
}

// typingPhase is the main phase of the three typing workloads: in each
// document in turn, both authors type their keys.
func (p *passRun) typingPhase() error {
	for i, d := range p.docs {
		if i > 0 {
			// Retire the previous document's sessions into the totals
			// before the authors move on.
			p.smp.flushes += p.a.s.Flushes() + p.b.s.Flushes()
			p.smp.typedKeys += p.a.s.Typed() + p.b.s.Typed()
			if err := p.openDocument(d); err != nil {
				return err
			}
		}
		if err := p.typeBoth(p.sp.keys, p.sp.cadence, true); err != nil {
			return err
		}
		if i < len(p.docs)-1 {
			if err := p.converged(d); err != nil {
				return err
			}
			p.drainClocks(p.mainPeerSamples())
		}
	}
	return nil
}

// mainPeerSamples is where the main phase's key-to-peer latencies belong.
func (p *passRun) mainPeerSamples() *[]float64 {
	if p.sp.cadence == paced {
		return &p.smp.peer
	}
	return &p.smp.peerBusy
}

// pacedProbe has both authors type probeKeys keys at the paced cadence into
// the document the main phase left.
func (p *passRun) pacedProbe(d *core.Document) error {
	if err := p.typeBoth(p.sp.probeKeys, paced, false); err != nil {
		return fmt.Errorf("paced probe: %w", err)
	}
	if err := p.converged(d); err != nil {
		return err
	}
	p.drainClocks(&p.smp.peer)
	return nil
}

// typeBoth has both authors type n keys each at cadence c; in an open loop
// Bob is due half a period after Ann.
func (p *passRun) typeBoth(n int, c cadence, mainPhase bool) error {
	start := time.Now()
	return p.both(func(a *author) error {
		due := start
		if a == p.b && c.rate > 0 {
			due = start.Add(time.Duration(float64(time.Second) / c.rate / 2))
		}
		return p.typeKeys(a, a.g.text(n), due, c, mainPhase)
	})
}

// typeKeys types keys one at a time through a's session. In an open loop
// key i is due at start + i periods and every latency is timed from the
// due time, so a stall is charged to the keys it delayed; in a closed loop
// the key is typed as soon as the previous one returns. Every saveEvery-th
// key is a save point: the author waits for the durable acknowledgement.
// In the main phase the save points are acknowledgement samples and feed
// the checkpointer.
func (p *passRun) typeKeys(a *author, keys string, start time.Time, c cadence, mainPhase bool) error {
	var period time.Duration
	if c.rate > 0 {
		period = time.Duration(float64(time.Second) / c.rate)
	}
	pending := 0
	for i := 0; i < len(keys); i++ {
		a.opSeq++
		at := time.Now()
		if period > 0 {
			due := start.Add(time.Duration(i) * period)
			if wait := due.Sub(at); wait > 0 {
				time.Sleep(wait)
			}
			p.smp.add(&p.smp.late, ms(time.Since(due)))
			at = due
		}
		a.clock.markTyped(at, 1)
		sp := p.tr.begin("client", "type", 0, a.opSeq)
		err := a.s.Type(keys[i : i+1])
		p.tr.end(sp)
		if err != nil {
			p.smp.count(false)
			return fmt.Errorf("%s: key %d: %w", a.user, i, err)
		}
		pending++
		if (i+1)%c.saveEvery == 0 || i == len(keys)-1 {
			sp := p.tr.begin("client", "wait", 0, a.opSeq)
			err := a.s.Wait()
			p.tr.end(sp)
			if err != nil {
				p.smp.count(false)
				return fmt.Errorf("%s: save point at key %d: %w", a.user, i, err)
			}
			if mainPhase {
				p.smp.add(&p.smp.ack, ms(time.Since(at)))
				p.ckpt.acknowledged(pending)
			}
			pending = 0
		}
		p.smp.count(true)
	}
	return nil
}

// mixedPhase has both authors run the mixed op cycle, mixedOps ops each.
func (p *passRun) mixedPhase() error {
	return p.both(func(a *author) error { return p.mixed(a, a.g.mixedOps(p.sp.mixedOps)) })
}

// mixed runs ops against a's document. A failed op is counted and the
// author carries on: none of these ops leaves state the next one needs.
func (p *passRun) mixed(a *author, ops []mixedOp) error {
	const margin = 64 // keeps positions clear of what the peer may delete meanwhile
	docID := a.d.ID()
	for _, op := range ops {
		a.opSeq++
		span := a.d.Len() - margin
		if span < 1 {
			return fmt.Errorf("%s: document shrank to %d characters", a.user, a.d.Len())
		}
		pos := int(op.at * float64(span))
		var err error
		t0 := time.Now()
		switch op.kind {
		case 'e':
			sp := p.tr.begin("client", "moveto", 0, a.opSeq)
			err = a.s.MoveTo(pos)
			p.tr.end(sp)
			if err != nil {
				break
			}
			typed := time.Now()
			p.smp.add(&p.smp.moveTo, ms(typed.Sub(t0)))
			a.clock.markTyped(typed, len(op.word))
			sp = p.tr.begin("client", "type", 0, a.opSeq)
			err = a.s.Type(op.word)
			p.tr.end(sp)
			if err == nil {
				sp = p.tr.begin("client", "wait", 0, a.opSeq)
				err = a.s.Wait()
				p.tr.end(sp)
			}
			if err != nil {
				return fmt.Errorf("%s: jump edit: %w", a.user, err) // a session error is sticky
			}
			done := time.Now()
			p.smp.add(&p.smp.edit, ms(done.Sub(t0)))
			p.smp.add(&p.smp.ack, ms(done.Sub(typed)))
			if p.sp.keys == 0 {
				p.ckpt.acknowledged(len(op.word))
			}
		case 'd':
			sp := p.tr.begin("client", "delete", 0, a.opSeq)
			err = a.d.Delete(pos, 6)
			p.tr.end(sp)
			p.smp.add(&p.smp.del, ms(time.Since(t0)))
		case 'j':
			sp := p.tr.begin("client", "late_join", 0, a.opSeq)
			err = lateJoin(p.st.addr, docID)
			p.tr.end(sp)
			p.smp.add(&p.smp.open, ms(time.Since(t0)))
		case 'r':
			sp := p.tr.begin("client", "read", 0, a.opSeq)
			var text string
			text, err = a.d.Read()
			p.tr.end(sp)
			if err == nil && len(text) < span {
				err = fmt.Errorf("read returned %d bytes of a %d-character document", len(text), span+margin)
			}
			p.smp.add(&p.smp.read, ms(time.Since(t0)))
		case 's':
			sp := p.tr.begin("client", "search", 0, a.opSeq)
			_, err = a.c.Search(client.SearchQuery{Terms: []string{op.word}, Limit: 10})
			p.tr.end(sp)
			p.smp.add(&p.smp.search, ms(time.Since(t0)))
		}
		p.smp.count(err == nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "keystroke-bench: %s: op %c failed: %v\n", a.user, op.kind, err)
		}
	}
	return nil
}

// lateJoin is a third editor arriving: connect, log in, open the document
// until its full text is in hand, leave.
func lateJoin(addr string, doc uint64) error {
	c, err := dial(addr, "carol")
	if err != nil {
		return err
	}
	defer c.Close()
	d, err := c.Open(doc)
	if err != nil {
		return err
	}
	if d.Len() == 0 {
		return errors.New("late join opened an empty document")
	}
	return nil
}

// crashTailKeys is what each author types between the last checkpoint and
// the crash image: the log recovery has to redo, the same every run.
const crashTailKeys = 512

// crashTail checkpoints and then has both authors type crashTailKeys more
// keys, so the crash image carries a fixed un-checkpointed tail of typing.
//
// The checkpoint is there because of a defect at this commit, outside the
// benchmark: db.Heap.Update logs an update before it knows the grown row
// still fits its page, Table.Update then relocates the row, and redo of
// the logged-but-never-applied update fails with "page full" — recovery
// refuses any log whose redo range holds such an update. Deletes grow
// rows (DeletedBy, DeletedAt), typing does not, so every delete has to be
// behind a checkpoint when the image is taken. README.md, "Known defect".
func (p *passRun) crashTail(d *core.Document) error {
	if _, err := p.st.db.FuzzyCheckpoint(); err != nil {
		return fmt.Errorf("checkpoint before the crash tail: %w", err)
	}
	err := p.both(func(a *author) error {
		if err := a.s.Type(a.g.text(crashTailKeys)); err != nil {
			return err
		}
		return a.s.Wait()
	})
	if err != nil {
		return fmt.Errorf("crash tail: %w", err)
	}
	return p.converged(d)
}

// converged waits until both replicas have applied every event the bus
// has published for d, then requires the two replicas and the server's
// document to hold byte-identical text.
func (p *passRun) converged(d *core.Document) error {
	bus := p.st.eng.Bus()
	deadline := time.Now().Add(30 * time.Second)
	for {
		seq := bus.Seq(d.ID())
		if p.a.d.Seq() == seq && p.b.d.Seq() == seq {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas of %s stuck at seq %d and %d, the bus is at %d",
				d.Name(), p.a.d.Seq(), p.b.d.Seq(), seq)
		}
		time.Sleep(200 * time.Microsecond)
	}
	text := d.Text()
	for _, a := range []*author{p.a, p.b} {
		if got := a.d.Text(); got != text {
			p.problem("%s's replica of %s differs from the server's text at byte %d (%d against %d bytes)",
				a.user, d.Name(), firstDiff(got, text), len(got), len(text))
		}
	}
	return nil
}

// drainClocks closes the books on a stretch of typing: the key clocks
// become peer-visible samples in into, a key the peer never showed is a
// failed operation, and a replica the server cut off is counted.
func (p *passRun) drainClocks(into *[]float64) {
	for _, a := range []*author{p.a, p.b} {
		if a.d.Lagged() {
			p.smp.laggedCopies++
		}
		var missing int
		*into, missing = a.clock.drain(*into)
		if missing != 0 {
			p.smp.failed += missing
			p.problem("%d of %s's keys never reached the peer's replica", missing, a.user)
		}
	}
}

// latencies reduces the samples to the named metrics.
func (p *passRun) latencies() {
	s, m := p.smp, p.m
	over := 0
	for _, v := range s.peer {
		if v > 50 {
			over++
		}
	}
	m["client.peer_visible_over_50ms_share"] = ratio(float64(over), float64(len(s.peer)))
	m["peer_visible_p50_ms"] = percentile(s.peer, 50)
	m["client.peer_visible_p99_ms"] = percentile(s.peer, 99)
	m["client.peer_visible_busy_p50_ms"] = percentile(s.peerBusy, 50)
	m["client.ack_p50_ms"] = percentile(s.ack, 50)
	m["client.ack_p99_ms"] = percentile(s.ack, 99)
	m["client.gen_late_p99_ms"] = percentile(s.late, 99)
	m["client.edit_p50_ms"] = percentile(s.edit, 50)
	m["client.open_p50_ms"] = percentile(s.open, 50)
	m["client.moveto_p50_ms"] = percentile(s.moveTo, 50)
	m["client.delete_p50_ms"] = percentile(s.del, 50)
	m["client.read_p50_ms"] = percentile(s.read, 50)
	m["client.search_p50_ms"] = percentile(s.search, 50)
}

// recoverCrashImage reopens the crash image and checks every workload
// document against the text that was acknowledged.
func (p *passRun) recoverCrashImage() error {
	// The live stack has just been closed and is all garbage: collect it
	// now so that recovery is not timed with that collection inside it.
	settledHeap()
	r, err := recoverImage(filepath.Join(p.dir, "crash"), p.acked, p.tr)
	if err != nil {
		return err
	}
	p.problems = append(p.problems, r.mismatches...)
	p.m["db.recovery_ms"] = r.totalMS
	p.m["db.open_ms"] = r.openMS
	p.m["core.open_document_ms"] = r.openDocMS
	p.m["db.recovery_analyzed"] = float64(r.analyzed)
	p.m["db.recovery_redone"] = float64(r.redone)
	return nil
}
