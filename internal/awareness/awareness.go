// Package awareness provides the collaboration-awareness layer of TeNDaX:
// a per-document event bus carrying committed editing operations plus
// presence (who has the document open, where their cursor is). The server
// pushes these events to every connected editor, which is what makes typing
// appear on other screens "as soon as it is stored persistently".
package awareness

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/util"
)

// EventKind labels a bus event.
type EventKind string

// Event kinds. Editing kinds mirror the engine's operation kinds; presence
// kinds are generated by the awareness layer itself.
const (
	EvInsert    EventKind = "insert"
	EvDelete    EventKind = "delete"
	EvPaste     EventKind = "paste"
	EvBatch     EventKind = "batch"
	EvLayout    EventKind = "layout"
	EvNote      EventKind = "note"
	EvUndo      EventKind = "undo"
	EvRedo      EventKind = "redo"
	EvVersion   EventKind = "version"
	EvWorkflow  EventKind = "workflow"
	EvSecurity  EventKind = "security"
	EvJoin      EventKind = "join"
	EvLeave     EventKind = "leave"
	EvCursor    EventKind = "cursor"
	EvDocRename EventKind = "rename"

	// EvPresence is a synthetic full presence snapshot, pushed by the
	// server (never published on the bus) after a shed gap was healed:
	// event replay restores the text, but the join/leave/cursor updates
	// coalesced into the gap are gone, so the roster is re-sent whole.
	// The roster rides in Batch — one item per present user, Text the
	// user name, Pos the cursor — and replaces the receiver's presence
	// state entirely.
	EvPresence EventKind = "presence"

	// EvGap is a synthetic in-band marker, never published by writers and
	// never sent on the wire: a subscription that overflowed
	// replaces its queued events with one EvGap whose Seq is the sequence
	// number of the newest shed event and whose N counts the events shed.
	// The consumer heals the gap from the retention ring (EventsSince) or,
	// if the ring no longer covers it, falls back to a full resync.
	EvGap EventKind = "gap"
)

// BatchItem is one operation inside an EvBatch event: an edit batch
// commits as a single transaction and announces itself as a single
// event whose items replay, in order, against a position-based replica.
// An EvUndo or EvRedo carries the instances it flipped the same way.
// Pos is resolved against the document state after the preceding items of
// the same batch, so sequential application reproduces the committed text.
type BatchItem struct {
	Kind EventKind // insert | paste | delete | layout | note
	Pos  int       // visible position, valid after the preceding items
	Text string    // inserted text (insert/paste/note)
	N    int       // characters affected (delete/layout)
	IDs  []util.ID // character instance IDs created or tombstoned

	// SrcDoc is a paste item's source document; in-process only, like
	// Event.SrcDoc.
	SrcDoc util.ID
}

// Event is one awareness notification for a document.
type Event struct {
	Seq   uint64      // per-document sequence number, dense from 1
	Doc   util.ID     // document
	Kind  EventKind   // what happened
	User  string      // acting user
	OpID  util.ID     // engine operation ID (editing events)
	Pos   int         // visible position of the change / cursor
	Text  string      // inserted text (insert/paste/note)
	N     int         // number of characters affected (delete)
	Name  string      // auxiliary name (version, rename, workflow task)
	IDs   []util.ID   // character instance IDs created (insert/paste) or tombstoned (delete)
	Batch []BatchItem // EvBatch/EvUndo/EvRedo payload, in commit order
	At    time.Time   // commit time

	// SrcDoc is the document an EvPaste copied its characters from (NilID
	// for typed text). In-process only, never on the wire: the incremental
	// indexer folds lineage edges from it without resolving each new
	// instance against a snapshot.
	SrcDoc util.ID

	// VisClass is the subscriber-visibility class this event COPY was
	// redacted for: stamped by a per-subscriber filter atomically with
	// the redaction itself, consumed by the server as part of the wire-
	// cache key, so the cached bytes and the key always come from the
	// same hidden set. The bus never touches it; it stays 0 (all
	// visible) on copies that never passed a redacting filter.
	VisClass int

	// Wire caches the event's serialized wire frames, shared by every
	// value copy of the event the bus fans out (channel sends, the
	// retention ring): the first subscriber pump to push the event renders
	// the frame for its encoding, everyone else reuses the bytes. The bus
	// itself never reads it — keying and rendering belong to the protocol
	// layer. Set by PublishWith; nil on events that never passed through
	// the bus.
	Wire *WireCache
}

// WireCache memoises the serialized forms of one published event, keyed by
// frame encoding (in practice: one key per wire protocol family). The
// cached bytes are immutable once built and may be written to any number
// of connections concurrently.
type WireCache struct {
	mu     sync.Mutex
	frames map[int][]byte
}

// Get returns the cached frame for key, building and memoising it on first
// use. A build error is returned without being cached, so a transient
// failure does not poison the event for other subscribers.
func (w *WireCache) Get(key int, build func() ([]byte, error)) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if f, ok := w.frames[key]; ok {
		return f, nil
	}
	f, err := build()
	if err != nil {
		return nil, err
	}
	if w.frames == nil {
		w.frames = make(map[int][]byte, 2)
	}
	w.frames[key] = f
	return f, nil
}

// OverflowPolicy names what happens to a subscription whose queue is full
// when the bus publishes another event. There is one policy.
type OverflowPolicy int

// ShedAndResync keeps the subscription attached: the queued events are
// dropped and replaced with a single coalesced EvGap marker, and
// publishing continues behind it. The consumer heals the gap from the
// retention ring (O(gap) events) instead of tearing the stream down and
// re-reading the full document.
const ShedAndResync OverflowPolicy = 0

// FilterFunc transforms or suppresses events for one subscriber. It runs
// on the consumer's goroutine in Next — never under the bus lock — so it
// may consult slow state (ACL tables, snapshots). Returning false drops
// the event for this subscriber; returning a modified copy redacts it.
// EvGap markers bypass the filter: a gap is about the queue, not about
// document content.
type FilterFunc func(Event) (Event, bool)

// SubscribeOpts configures one subscription.
type SubscribeOpts struct {
	// Filter, when non-nil, is applied to every event delivered by Next.
	Filter FilterFunc
	// QueueLimit bounds the pending-event queue. 0 means the bus default
	// (NewBus bufSize, itself defaulting to 256); negative means unbounded
	// (the queue grows without shedding — test use only).
	QueueLimit int
	// OverflowPolicy is ShedAndResync, the zero value and the only policy.
	OverflowPolicy OverflowPolicy
}

// Subscription receives events for one document through a bounded queue.
// Consume with Next; when the producer outruns the consumer the queue is
// shed to one EvGap marker (ShedAndResync).
type Subscription struct {
	bus    *Bus
	doc    util.ID
	id     int
	filter FilterFunc
	limit  int // <0 = unbounded

	mu       sync.Mutex
	cond     *sync.Cond
	q        []Event
	closed   bool
	sheds    int64
	maxDepth int
}

// Next blocks until an event is available and returns it, or returns
// ok=false once the subscription is closed and fully drained. Events
// queued before a close are always delivered, in publication order, before
// ok=false — closure never loses them.
func (s *Subscription) Next() (Event, bool) {
	for {
		s.mu.Lock()
		for len(s.q) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.q) == 0 {
			s.mu.Unlock()
			return Event{}, false
		}
		e := s.q[0]
		copy(s.q, s.q[1:])
		s.q[len(s.q)-1] = Event{}
		s.q = s.q[:len(s.q)-1]
		s.mu.Unlock()
		if s.bus.depth != nil {
			s.bus.depth.Add(-1)
		}
		if s.filter != nil && e.Kind != EvGap {
			var ok bool
			if e, ok = s.filter(e); !ok {
				continue
			}
		}
		return e, true
	}
}

// Sheds returns how many events this subscription has dropped (each
// coalesced EvGap accounts for its N shed events).
func (s *Subscription) Sheds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sheds
}

// Depth returns the number of events currently queued.
func (s *Subscription) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

// MaxDepth returns the deepest the queue has ever been — by construction
// never more than the queue limit, which is what bounds per-subscriber
// memory under a storm.
func (s *Subscription) MaxDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxDepth
}

// Close detaches the subscription from the bus. Queued events remain
// readable via Next before it reports closure.
func (s *Subscription) Close() { s.bus.unsubscribe(s.doc, s.id) }

// enqueue delivers one published event. Called with the bus lock held
// (lock order: Bus.mu then Subscription.mu), so shedding is decided in
// publication order.
func (s *Subscription) enqueue(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.limit >= 0 && len(s.q) >= s.limit {
		// Drop everything pending and leave one coalesced gap behind. A
		// previous gap marker folds its count in without being
		// double-counted in the shed total.
		shedNow := int64(1) // the event that found the queue full
		var carried int64
		for i := range s.q {
			if s.q[i].Kind == EvGap {
				carried += int64(s.q[i].N)
			} else {
				shedNow++
			}
		}
		if s.bus.depth != nil {
			s.bus.depth.Add(int64(1 - len(s.q)))
		}
		s.sheds += shedNow
		if s.bus.sheds != nil {
			s.bus.sheds.Add(shedNow)
		}
		s.q = s.q[:0]
		s.q = append(s.q, Event{Seq: e.Seq, Doc: e.Doc, Kind: EvGap, N: int(shedNow + carried), At: e.At})
		s.cond.Signal()
		return
	}
	s.q = append(s.q, e)
	if len(s.q) > s.maxDepth {
		s.maxDepth = len(s.q)
	}
	if s.bus.depth != nil {
		s.bus.depth.Add(1)
	}
	s.cond.Signal()
}

// close marks the subscription closed and wakes the consumer. Queued
// events are preserved for draining.
func (s *Subscription) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Presence is one user's live state in a document.
type Presence struct {
	User     string
	Cursor   int
	LastSeen time.Time
}

// Bus is the awareness hub: per-document event fan-out plus the presence
// registry. Safe for concurrent use.
//
// The bus also retains a bounded ring of the most recent events per
// document (the delta-resync source): a replica that knows it
// applied events up to sequence S asks for everything after S and receives
// O(gap) events instead of the O(doc) full text — as long as the gap still
// fits the retention window.
type Bus struct {
	mu       sync.Mutex
	nextSub  int
	seq      map[util.ID]uint64
	subs     map[util.ID]map[int]*Subscription
	presence map[util.ID]map[string]*Presence
	ring     map[util.ID]*evRing
	bufSize  int
	ringCap  int

	// Optional hot-path counters (set once at startup, before traffic):
	// total events shed across all subscriptions, and the
	// aggregate number of events queued bus-wide right now.
	sheds *atomic.Int64
	depth *atomic.Int64
}

// SetCounters installs shared counters for shed events and aggregate
// queue depth (e.g. the server's /metrics registry). Call before traffic;
// nil disables a counter.
func (b *Bus) SetCounters(sheds, depth *atomic.Int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sheds = sheds
	b.depth = depth
}

// DefaultRetention is the per-document op-ring capacity when none is
// configured: enough to absorb a briefly-disconnected editor's gap without
// holding a long editing history in memory per document.
const DefaultRetention = 1024

// NewBus returns an awareness bus. bufSize is each subscriber's buffer
// (default 256).
func NewBus(bufSize int) *Bus {
	if bufSize <= 0 {
		bufSize = 256
	}
	return &Bus{
		seq:      make(map[util.ID]uint64),
		subs:     make(map[util.ID]map[int]*Subscription),
		presence: make(map[util.ID]map[string]*Presence),
		ring:     make(map[util.ID]*evRing),
		bufSize:  bufSize,
		ringCap:  DefaultRetention,
	}
}

// SetRetention resizes the per-document op ring used by EventsSince.
// n <= 0 restores the default. Existing rings are dropped (their documents
// fall back to full resync once, then re-accumulate).
func (b *Bus) SetRetention(n int) {
	if n <= 0 {
		n = DefaultRetention
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ringCap = n
	b.ring = make(map[util.ID]*evRing)
}

// Retention returns the per-document op-ring capacity.
func (b *Bus) Retention() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ringCap
}

// evRing is a fixed-capacity circular buffer of the latest published
// events of one document. Only touched under the bus lock.
type evRing struct {
	buf   []Event
	start int // index of the oldest retained event
	n     int // events currently retained
}

func (r *evRing) push(e Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// EventsSince returns every event of doc with sequence number > since, in
// order, provided the retention ring still covers the whole gap; ok is
// false when the gap exceeds retention (the caller must fall back to a
// full resync). since >= the current sequence returns an empty covered
// slice. The returned events are copies; the Batch slices are shared with
// the published events, which are never mutated after publication.
func (b *Bus) EventsSince(doc util.ID, since uint64) ([]Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.seq[doc]
	if since >= cur {
		return nil, true
	}
	r := b.ring[doc]
	retained := 0
	if r != nil {
		retained = r.n
	}
	if cur-since > uint64(retained) {
		return nil, false // gap predates the ring
	}
	out := make([]Event, 0, cur-since)
	for i := retained - int(cur-since); i < retained; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out, true
}

// Subscribe registers for events on doc. The zero SubscribeOpts value
// means the bus-default queue limit and no filter.
func (b *Bus) Subscribe(doc util.ID, opts SubscribeOpts) *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextSub++
	limit := opts.QueueLimit
	if limit == 0 {
		limit = b.bufSize
	}
	s := &Subscription{
		bus:    b,
		doc:    doc,
		id:     b.nextSub,
		filter: opts.Filter,
		limit:  limit,
	}
	s.cond = sync.NewCond(&s.mu)
	m := b.subs[doc]
	if m == nil {
		m = make(map[int]*Subscription)
		b.subs[doc] = m
	}
	m[s.id] = s
	return s
}

func (b *Bus) unsubscribe(doc util.ID, id int) {
	b.mu.Lock()
	m := b.subs[doc]
	s := m[id]
	if s != nil {
		delete(m, id)
	}
	b.mu.Unlock()
	if s != nil {
		s.close()
	}
}

// Publish assigns the event its per-document sequence number and delivers
// it to all subscribers. A slow subscriber's queue is shed rather than
// blocking the committer.
func (b *Bus) Publish(e Event) uint64 { return b.PublishWith(e, nil) }

// PublishWith is Publish with a hook invoked while the bus lock is held,
// immediately after the event's sequence number is assigned and before the
// event is fanned out to subscribers. Writers use it to publish a document
// state snapshot atomically with the event announcing it: because Seq()
// readers take the same lock, no reader can observe the new sequence
// number without the state it describes, or vice versa.
func (b *Bus) PublishWith(e Event, fn func(seq uint64)) uint64 {
	b.mu.Lock()
	b.seq[e.Doc]++
	e.Seq = b.seq[e.Doc]
	if e.Wire == nil {
		e.Wire = &WireCache{}
	}
	if fn != nil {
		fn(e.Seq)
	}
	r := b.ring[e.Doc]
	if r == nil {
		r = &evRing{buf: make([]Event, b.ringCap)}
		b.ring[e.Doc] = r
	}
	r.push(e)
	for _, s := range b.subs[e.Doc] {
		s.enqueue(e)
	}
	b.mu.Unlock()
	return e.Seq
}

// Seq returns the latest published sequence number for doc.
func (b *Bus) Seq(doc util.ID) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq[doc]
}

// Join records user as present in doc and publishes EvJoin.
func (b *Bus) Join(doc util.ID, user string, at time.Time) {
	b.mu.Lock()
	m := b.presence[doc]
	if m == nil {
		m = make(map[string]*Presence)
		b.presence[doc] = m
	}
	m[user] = &Presence{User: user, LastSeen: at}
	b.mu.Unlock()
	b.Publish(Event{Doc: doc, Kind: EvJoin, User: user, At: at})
}

// Leave removes user from doc's presence and publishes EvLeave.
func (b *Bus) Leave(doc util.ID, user string, at time.Time) {
	b.mu.Lock()
	if m := b.presence[doc]; m != nil {
		delete(m, user)
	}
	b.mu.Unlock()
	b.Publish(Event{Doc: doc, Kind: EvLeave, User: user, At: at})
}

// MoveCursor updates user's cursor position in doc and publishes EvCursor.
func (b *Bus) MoveCursor(doc util.ID, user string, pos int, at time.Time) {
	b.mu.Lock()
	m := b.presence[doc]
	if m == nil {
		m = make(map[string]*Presence)
		b.presence[doc] = m
	}
	p := m[user]
	if p == nil {
		p = &Presence{User: user}
		m[user] = p
	}
	p.Cursor = pos
	p.LastSeen = at
	b.mu.Unlock()
	b.Publish(Event{Doc: doc, Kind: EvCursor, User: user, Pos: pos, At: at})
}

// Present returns the users currently in doc, sorted by name.
func (b *Bus) Present(doc util.ID) []Presence {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Presence, 0, len(b.presence[doc]))
	for _, p := range b.presence[doc] {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}
