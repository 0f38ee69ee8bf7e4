// Package index maintains the search and lineage structures incrementally
// from the awareness op stream — the Telex-style inversion of the seed's
// rescan constructors (search.BuildIndex, lineage.Build): derived state is
// folded forward from the durable action log in O(ops) instead of being
// recomputed from materialized documents in O(corpus).
//
// A Service holds one subscription — a cursor into the document's op
// ring — per document, and resolves any text or character metadata it
// needs against immutable DocSnapshots, so indexing never contends on a
// document write lock and a slow indexer never stalls a writer. Character
// instances are keyed by their stable IDs (the Sun et al. argument): an
// insert event names exactly the instances it created, which is what
// makes lineage folding exact under concurrency and re-priming — counting
// is idempotent per instance ID.
//
// Freshness model: folding an event is bookkeeping proportional to the
// edit — its positional items (the same stream a client replica replays to
// converge) extend the document's set of changed ranges, and a paste adds
// its instances to the lineage graph from the source the event names. A
// coalescing refresher then re-tokenizes only those ranges, widened to
// token boundaries and read by position from the snapshot the term table
// reflects and from the current one (search.Index.PatchDoc). Whatever has
// no known positional effect — a gap (the indexer fell further behind
// than the op ring reaches), a snapshot ahead of the folded events when an
// answer is needed now — re-indexes the document wholesale, which is also
// how it was primed.
// Every Query first drains the dirty set, so answers are exact with
// respect to all folded events.
package index

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/lineage"
	"tendax/internal/search"
	"tendax/internal/texttree"
	"tendax/internal/util"
)

// Stats is a point-in-time view of indexer progress for /metrics.
type Stats struct {
	Docs    int           `json:"docs"`            // documents under maintenance
	Applied int64         `json:"applied_ops"`     // events folded since Open
	Heals   int64         `json:"heals"`           // ring-miss recoveries (equals Full.RingMiss)
	Lag     int           `json:"lag_docs"`        // docs folded but not yet re-tokenized
	Delta   int64         `json:"delta_refreshes"` // refreshes that re-tokenized changed ranges only
	Full    FullRefreshes `json:"full_refreshes"`  // wholesale re-indexes, by cause
}

// FullRefreshes counts wholesale document re-indexes by what forced them;
// anything but Prime growing steadily means the O(edit) path is degrading.
type FullRefreshes struct {
	Prime    int64 `json:"prime"`     // first indexing of a document
	RingMiss int64 `json:"ring_miss"` // the indexer fell further behind than the op ring reaches
	SeqAhead int64 `json:"seq_ahead"` // Query/Sync found a snapshot ahead of the folded events
}

// refreshCause says why a document's next refresh must be wholesale.
type refreshCause int

const (
	causeNone refreshCause = iota // changed ranges are exact: patch
	causePrime
	causeRingMiss
	causeSeqAhead
	causeCount
)

// Service is the incremental index over one engine: the live replacement
// for the search.BuildIndex / lineage.Build rescans. All reads go through
// Query/Provenance/Chain/Graph; Close detaches from the bus.
type Service struct {
	eng *core.Engine

	mu      sync.Mutex
	ix      *search.Index
	g       *lineage.Graph
	cites   map[util.ID]int
	counted map[util.ID]bool // pasted char instances already folded into g
	dirty   map[util.ID]bool // docs whose text/metadata needs re-resolving
	states  map[util.ID]*docState
	closed  bool

	kick chan struct{} // refresher wakeup (capacity 1)
	stop chan struct{}
	wg   sync.WaitGroup

	applied   atomic.Int64
	heals     atomic.Int64
	refreshes [causeCount]int64 // refreshes by cause; causeNone counts the patches (under mu)
}

type docState struct {
	d   *core.Document
	sub *awareness.Subscription
	seq uint64 // highest bus sequence folded for this doc

	// base is the snapshot the search index's term table reflects and
	// changed where the text has moved on since, from the events folded
	// after base.Seq(). A refresh patches exactly those ranges, unless
	// full names a reason their record is incomplete.
	base    *core.DocSnapshot
	changed changes
	full    refreshCause
	// layout: the document had heading spans at the last refresh, or a
	// layout/note event arrived since — headings need re-resolving.
	layout bool
}

// Open attaches an incremental indexer to eng: it primes from the current
// document set (one immutable snapshot per document) and then follows the
// awareness stream. New documents created on eng are picked up
// automatically.
func Open(eng *core.Engine) (*Service, error) {
	s := &Service{
		eng:     eng,
		ix:      search.New(eng),
		g:       lineage.NewGraph(),
		cites:   make(map[util.ID]int),
		counted: make(map[util.ID]bool),
		dirty:   make(map[util.ID]bool),
		states:  make(map[util.ID]*docState),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	// Register the observer before enumerating, so a document created
	// concurrently with Open is seen at least once (addDoc is idempotent).
	eng.SetDocObserver(func(id util.ID, external bool) {
		if external {
			s.addExternal(id)
			return
		}
		if err := s.addDoc(id); err != nil {
			// The document row committed, so this is a shutdown race;
			// a later query will not see a half-indexed doc either way.
			_ = err
		}
	})
	infos, err := eng.ListDocuments()
	if err != nil {
		s.detach()
		return nil, err
	}
	exts, err := eng.ExternalSources()
	if err != nil {
		s.detach()
		return nil, err
	}
	s.mu.Lock()
	for _, info := range exts {
		s.g.EnsureNode(info.ID, info.Name, true)
	}
	s.mu.Unlock()
	for _, info := range infos {
		if err := s.addDoc(info.ID); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.refresher()
	return s, nil
}

func (s *Service) detach() { s.eng.SetDocObserver(nil) }

func (s *Service) addExternal(id util.ID) {
	info, err := s.eng.DocInfoByID(id)
	if err != nil {
		return
	}
	s.mu.Lock()
	if !s.closed {
		s.g.EnsureNode(id, info.Name, true)
	}
	s.mu.Unlock()
}

// addDoc brings one document under maintenance: subscribe first, snapshot
// second — every event not reflected in the snapshot then has a sequence
// above the snapshot's, so the pump's seq guard makes the handoff exact.
func (s *Service) addDoc(id util.ID) error {
	d, err := s.eng.OpenDocument(id)
	if err != nil {
		return err
	}
	sub := s.eng.Bus().Subscribe(id, awareness.SubscribeOpts{})
	snap, seq := d.SnapshotSeq()

	s.mu.Lock()
	if s.closed || s.states[id] != nil {
		s.mu.Unlock()
		sub.Close()
		return nil
	}
	st := &docState{d: d, sub: sub, seq: seq}
	s.states[id] = st
	s.primeLocked(id, st, snap, causePrime)
	s.mu.Unlock()

	s.wg.Add(1)
	go s.pump(id, st)
	return nil
}

// primeLocked folds one document's current state into the index from an
// immutable snapshot: the initial build for this doc, and the fallback
// when a gap outlived the op ring. It is idempotent — counting is keyed
// by character-instance ID, and text indexing replaces the doc's
// contribution wholesale.
func (s *Service) primeLocked(id util.ID, st *docState, snap *core.DocSnapshot, why refreshCause) {
	snap.Tree().WalkAll(func(ch *texttree.Char, _ bool) bool {
		s.countCharLocked(id, ch.ID, ch.SourceDoc, ch.Created)
		return true
	})
	// While full is set base is only a sequence floor; the wholesale
	// refresh makes it the text the term table reflects.
	st.base, st.full = snap, why
	s.refreshDocLocked(id, st, snap)
}

// countCharLocked folds one character instance into the lineage graph,
// exactly once per instance ID. Typed characters have no source and fold
// to nothing — not even a counted entry, so the set grows with what was
// pasted, not with what was typed.
func (s *Service) countCharLocked(doc, char, src util.ID, created time.Time) {
	if src.IsNil() || src == doc || s.counted[char] {
		return
	}
	s.counted[char] = true
	if s.g.AddChar(src, doc, created) {
		s.cites[src]++
		s.ix.SetCites(src, s.cites[src])
	}
}

// pump is the per-document fold loop: one goroutine per subscription.
func (s *Service) pump(id util.ID, st *docState) {
	defer s.wg.Done()
	for {
		ev, ok := st.sub.Next()
		if !ok {
			return
		}
		s.fold(id, st, ev)
	}
}

func (s *Service) fold(id util.ID, st *docState, ev awareness.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if ev.Kind == awareness.EvGap {
		s.healLocked(id, st, ev)
		return
	}
	if ev.Seq <= st.seq {
		return // already reflected in the priming snapshot or a heal
	}
	st.seq = ev.Seq
	s.foldEventLocked(id, st, ev)
}

// foldEventLocked applies one event's index consequences. Presence-class
// events (join/leave/cursor/presence) carry no document state and are
// skipped; everything else marks the doc dirty so the refresher brings the
// search index up to the latest snapshot. An event at or below the base
// snapshot's sequence (a wholesale refresh ran ahead of the cursor) is
// already in the term table and leaves the changed ranges alone.
func (s *Service) foldEventLocked(id util.ID, st *docState, ev awareness.Event) {
	inBase := ev.Seq <= st.base.Seq()
	switch ev.Kind {
	case awareness.EvJoin, awareness.EvLeave, awareness.EvCursor, awareness.EvPresence:
		return
	case awareness.EvInsert, awareness.EvPaste, awareness.EvDelete, awareness.EvLayout, awareness.EvNote:
		s.foldItemLocked(id, st, awareness.BatchItem{Kind: ev.Kind, Pos: ev.Pos, N: ev.N,
			IDs: ev.IDs, SrcDoc: ev.SrcDoc}, ev.At, inBase)
	case awareness.EvBatch, awareness.EvUndo, awareness.EvRedo:
		for _, it := range ev.Batch {
			s.foldItemLocked(id, st, it, ev.At, inBase)
		}
	}
	s.applied.Add(1)
	s.markDirtyLocked(id)
}

// foldItemLocked folds one positional item — a whole single-op event or
// one op of a batch, resolved, as the bus guarantees, against the document
// state after everything published before it. A paste names its source and
// the commit time every new instance carries, so lineage needs no snapshot
// lookup per character; it is counted even when the text is already in the
// base snapshot (counting is idempotent, the changed ranges are not).
func (s *Service) foldItemLocked(id util.ID, st *docState, it awareness.BatchItem, at time.Time, inBase bool) {
	if !it.SrcDoc.IsNil() {
		for _, cid := range it.IDs {
			s.countCharLocked(id, cid, it.SrcDoc, at)
		}
	}
	if inBase {
		return
	}
	switch it.Kind {
	case awareness.EvInsert, awareness.EvPaste:
		st.changed = st.changed.splice(it.Pos, 0, it.N)
	case awareness.EvDelete:
		st.changed = st.changed.splice(it.Pos, it.N, 0)
	case awareness.EvLayout, awareness.EvNote:
		st.layout = true
	}
}

// healLocked answers a gap, which always means the indexer fell further
// behind than the op ring reaches: the events that would have carried the
// positions are gone, so the document is re-primed from a fresh snapshot
// (idempotent), which is at or after gap.Seq, where the cursor resumes.
func (s *Service) healLocked(id util.ID, st *docState, gap awareness.Event) {
	s.heals.Add(1)
	snap, seq := st.d.SnapshotSeq()
	st.seq = max(seq, gap.Seq)
	s.primeLocked(id, st, snap, causeRingMiss)
}

func (s *Service) markDirtyLocked(id util.ID) {
	s.dirty[id] = true
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// refresher coalesces dirty documents: a burst of N events on one doc
// costs one refresh of the ranges they changed between them.
func (s *Service) refresher() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
			s.mu.Lock()
			s.flushDirtyLocked(false)
			s.mu.Unlock()
		}
	}
}

// flushDirtyLocked refreshes the dirty documents. A latest snapshot ahead
// of the folded events holds edits whose positions are not yet read:
// the eager refresher leaves such a document dirty — folding those events
// kicks it again — while now (Query, Sync) re-indexes it wholesale rather
// than wait.
func (s *Service) flushDirtyLocked(now bool) {
	for id := range s.dirty {
		st := s.states[id]
		if st == nil {
			delete(s.dirty, id)
			continue
		}
		snap := st.d.Snapshot()
		if st.full == causeNone && snap.Seq() > st.seq {
			if !now {
				continue
			}
			st.full = causeSeqAhead
		}
		delete(s.dirty, id)
		s.refreshDocLocked(id, st, snap)
	}
}

// refreshDocLocked brings one document's search-index entry to snap: the
// changed ranges are patched in, or — when st.full says their record is
// incomplete — text, headings and metadata are re-resolved wholesale. The
// docs-table row is read directly (DocInfoByID) so no document mutex is
// ever taken on the index path.
func (s *Service) refreshDocLocked(id util.ID, st *docState, snap *core.DocSnapshot) {
	info, err := s.eng.DocInfoByID(id)
	if err != nil {
		return // row gone mid-shutdown; nothing to index
	}
	s.refreshes[st.full]++
	if st.full == causeNone {
		s.ix.PatchDoc(info, st.base.Tree(), snap.Tree(), st.changed)
	}
	if st.full != causeNone || st.layout {
		spans, err := snap.Spans()
		if err != nil {
			spans = nil
		}
		headings := search.HeadingText(snap, spans)
		if st.full != causeNone {
			s.ix.UpdateDoc(info, snap.Text(), headings)
		} else {
			s.ix.SetHeadings(id, headings)
		}
		// With a heading span in place any edit may move its text, even
		// back from nothing; without one only a layout event can.
		st.layout = slices.ContainsFunc(spans, func(sp core.Span) bool { return sp.Kind == core.SpanHeading })
	}
	st.base, st.changed, st.full = snap, st.changed[:0], causeNone
	s.g.EnsureNode(id, info.Name, false)
}

// Sync blocks until every event published before the call has been folded
// and re-tokenized: the strong-freshness barrier tests and benchmarks
// quiesce on.
func (s *Service) Sync() {
	targets := make(map[util.ID]uint64)
	s.mu.Lock()
	for id := range s.states {
		targets[id] = s.eng.Bus().Seq(id)
	}
	s.mu.Unlock()
	for {
		behind := false
		s.mu.Lock()
		for id, want := range targets {
			st := s.states[id]
			if st != nil && st.seq < want {
				behind = true
				break
			}
		}
		if !behind {
			s.flushDirtyLocked(true)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
}

// Query answers a search over the incrementally maintained index. Dirty
// documents are re-resolved first, so results are exact with respect to
// every event folded so far.
func (s *Service) Query(q search.Query) ([]search.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("index: service closed")
	}
	s.flushDirtyLocked(true)
	if q.Rank == search.ByMostRead {
		// Reads are recorded without a bus event; resolve them at query
		// time, exactly as a fresh rebuild would.
		if err := s.ix.RefreshReads(); err != nil {
			return nil, err
		}
	}
	return s.ix.Search(q)
}

// Provenance explains where the visible range [pos, pos+n) of doc came
// from (lineage.SourceRef runs, nearest first).
func (s *Service) Provenance(doc util.ID, pos, n int) ([]lineage.SourceRef, error) {
	return lineage.ProvenanceOfRange(s.eng, doc, pos, n)
}

// Chain returns the transitive pedigree of one character instance.
func (s *Service) Chain(charID util.ID) ([]core.CharMeta, error) {
	return lineage.ProvenanceChain(s.eng, charID)
}

// CitationCount returns how many distinct documents pasted from doc,
// according to the incrementally maintained graph.
func (s *Service) CitationCount(doc util.ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cites[doc]
}

// Graph returns a deep copy of the maintained provenance graph (safe to
// render or mine while writers keep typing).
func (s *Service) Graph() *lineage.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := lineage.NewGraph()
	for id, n := range s.g.Nodes {
		g.Nodes[id] = &lineage.Node{Doc: n.Doc, Name: n.Name, External: n.External}
	}
	for k, e := range s.g.Edges {
		cp := *e
		g.Edges[k] = &cp
	}
	return g
}

// Stats reports indexer progress counters for /metrics.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Docs:    len(s.states),
		Applied: s.applied.Load(),
		Heals:   s.heals.Load(),
		Lag:     len(s.dirty),
		Delta:   s.refreshes[causeNone],
		Full: FullRefreshes{
			Prime:    s.refreshes[causePrime],
			RingMiss: s.refreshes[causeRingMiss],
			SeqAhead: s.refreshes[causeSeqAhead],
		},
	}
}

// Close detaches from the bus and stops all maintenance goroutines.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	subs := make([]*awareness.Subscription, 0, len(s.states))
	for _, st := range s.states {
		subs = append(subs, st.sub)
	}
	s.mu.Unlock()
	s.detach()
	close(s.stop)
	for _, sub := range subs {
		sub.Close()
	}
	s.wg.Wait()
}
