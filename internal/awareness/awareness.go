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
	EvInsert   EventKind = "insert"
	EvDelete   EventKind = "delete"
	EvPaste    EventKind = "paste"
	EvBatch    EventKind = "batch"
	EvLayout   EventKind = "layout"
	EvNote     EventKind = "note"
	EvUndo     EventKind = "undo"
	EvRedo     EventKind = "redo"
	EvVersion  EventKind = "version"
	EvWorkflow EventKind = "workflow"
	EvSecurity EventKind = "security"
	EvJoin     EventKind = "join"
	EvLeave    EventKind = "leave"
	EvCursor   EventKind = "cursor"

	// EvPresence is a synthetic full presence snapshot, pushed by the
	// server (never published on the bus) after a gap: the base the
	// server answers the gap with restores the text, but the join/leave/cursor
	// events inside the gap are gone, so the roster is re-sent whole.
	// The roster rides in Batch — one item per present user, Text the
	// user name, Pos the cursor — and replaces the receiver's presence
	// state entirely.
	EvPresence EventKind = "presence"

	// EvGap is a synthetic in-band marker, never published by writers and
	// never sent on the wire: a subscription whose next event the op ring
	// has already evicted gets one EvGap whose Seq is the document's
	// newest sequence number and whose N counts the events skipped, and
	// then continues from Seq+1. The consumer recovers from a snapshot at
	// or after Seq: the server pushes the subscriber a fresh base.
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
	IDs  util.IDs  // character instance IDs created or tombstoned

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
	IDs   util.IDs    // character instance IDs created (insert/paste) or tombstoned (delete)
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
	// value copy of the event the op ring hands out: the first subscriber
	// pump to push the event renders the frame for its encoding, everyone
	// else reuses the bytes. The bus itself never reads it — keying and
	// rendering belong to the protocol layer. Set by PublishWith; nil on
	// events that never passed through the bus.
	Wire *WireCache
}

// WireCache memoises the serialized forms of one published event, keyed by
// the subscriber's visibility class (the server's redaction classes). The
// cached bytes are immutable once built and may be written to any number
// of connections concurrently. The first two keys — the all-visible class
// and one restricted class — are held inline; only a document with
// readers in more classes spills into the map.
type WireCache struct {
	mu     sync.Mutex
	n      int // inline slots in use
	keys   [2]int
	frames [2][]byte
	more   map[int][]byte
}

// Get returns the cached frame for key, building and memoising it on first
// use. A build error is returned without being cached, so a transient
// failure does not poison the event for other subscribers.
func (w *WireCache) Get(key int, build func() ([]byte, error)) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 0; i < w.n; i++ {
		if w.keys[i] == key {
			return w.frames[i], nil
		}
	}
	if f, ok := w.more[key]; ok {
		return f, nil
	}
	f, err := build()
	if err != nil {
		return nil, err
	}
	switch {
	case w.n < len(w.keys):
		w.keys[w.n], w.frames[w.n] = key, f
		w.n++
	case w.more == nil:
		w.more = map[int][]byte{key: f}
	default:
		w.more[key] = f
	}
	return f, nil
}

// OverflowPolicy names what happens to a subscription that falls further
// behind than the op ring reaches. There is one policy.
type OverflowPolicy int

// ShedAndResync keeps the subscription attached: the events the ring
// evicted are skipped, one EvGap marker stands in for them, and delivery
// continues from the newest event. The consumer recovers from a snapshot
// instead of the stream being torn down.
const ShedAndResync OverflowPolicy = 0

// FilterFunc transforms or suppresses events for one subscriber. It runs
// on the consumer's goroutine in Next — never under the bus lock — so it
// may consult slow state (ACL tables, snapshots). Returning false drops
// the event for this subscriber; returning a modified copy redacts it.
// EvGap markers bypass the filter: a gap is about the reader's position,
// not about document content.
type FilterFunc func(Event) (Event, bool)

// SubscribeOpts configures one subscription.
type SubscribeOpts struct {
	// Filter, when non-nil, is applied to every event delivered by Next.
	Filter FilterFunc
	// OverflowPolicy is ShedAndResync, the zero value and the only policy.
	OverflowPolicy OverflowPolicy
}

// Subscription is a cursor into one document's op ring: Next delivers,
// in order, every event published after Subscribe. The ring is the only
// copy of the events, so a reader costs a position, not a queue; one that
// falls behind by more than the ring holds gets an EvGap (ShedAndResync).
type Subscription struct {
	bus    *Bus
	log    *docLog
	filter FilterFunc

	// Guarded by the bus lock.
	next     uint64 // sequence number of the next event to deliver
	closed   bool
	end      uint64 // once closed: the last sequence number to deliver
	sheds    int64
	maxDepth int
}

// Next blocks until an event is available and returns it, or returns
// ok=false once the subscription is closed and fully drained. Events
// published before a close are delivered, in publication order, before
// ok=false.
func (s *Subscription) Next() (Event, bool) {
	b := s.bus
	for {
		b.mu.Lock()
		for !s.closed && s.next > s.log.seq {
			s.log.wake.Wait()
		}
		lag := s.lagLocked()
		if lag == 0 {
			b.mu.Unlock()
			return Event{}, false
		}
		s.maxDepth = max(s.maxDepth, lag)
		e, retained := s.log.ring.at(s.next)
		if retained {
			lag = 1
		} else {
			// The ring evicted s.next: skip to the newest event.
			e = Event{Seq: s.next + uint64(lag) - 1, Doc: s.log.doc, Kind: EvGap, N: lag}
			s.sheds += int64(lag)
			add(b.sheds, lag)
		}
		s.next += uint64(lag)
		if !s.closed {
			add(b.depth, -lag)
		}
		b.mu.Unlock()
		if retained && s.filter != nil {
			var ok bool
			if e, ok = s.filter(e); !ok {
				continue
			}
		}
		return e, true
	}
}

// lagLocked is the number of events published (before a close) that Next
// has not yet delivered, evicted ones included.
func (s *Subscription) lagLocked() int {
	head := s.log.seq
	if s.closed {
		head = s.end
	}
	return int(head + 1 - s.next)
}

// Sheds returns how many events this subscription skipped because the
// ring had evicted them (each EvGap accounts for its N).
func (s *Subscription) Sheds() int64 {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.sheds
}

// Depth returns the number of events not yet delivered.
func (s *Subscription) Depth() int {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.lagLocked()
}

// MaxDepth returns the furthest this subscription has ever been behind.
func (s *Subscription) MaxDepth() int {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return max(s.maxDepth, s.lagLocked())
}

// Close detaches the subscription from the bus. Events published before
// the close remain readable via Next before it reports closure.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	add(b.depth, -s.lagLocked())
	s.closed, s.end = true, s.log.seq
	s.log.subs--
	s.log.wake.Broadcast()
}

// add adds n to an optional counter.
func add(c *atomic.Int64, n int) {
	if c != nil {
		c.Add(int64(n))
	}
}

// Presence is one user's live state in a document.
type Presence struct {
	User     string
	Cursor   int
	LastSeen time.Time
}

// Bus is the awareness hub: per-document event sequencing plus the
// presence registry. Safe for concurrent use.
//
// Every published event — edits and presence alike — is stored once, in a
// ring of the most recent events of its document, whose memory follows the
// events it holds up to the retention bound. The ring is the delivery
// path: each subscription is a cursor into it.
type Bus struct {
	mu        sync.Mutex
	docs      map[util.ID]*docLog
	retention int

	// Optional hot-path counters (set once at startup, before traffic):
	// events skipped because the ring had evicted them, and unread events
	// across all open subscriptions right now.
	sheds *atomic.Int64
	depth *atomic.Int64
}

// docLog is one document's part of the bus. Only touched under the bus
// lock.
type docLog struct {
	doc      util.ID
	seq      uint64 // newest published sequence number
	ring     evRing
	subs     int       // open subscriptions: each publish adds one unread event per cursor
	wake     sync.Cond // L = &Bus.mu; broadcast on publish and close
	presence map[string]*Presence
}

// SetCounters installs shared counters for shed events and aggregate
// unread depth (e.g. the server's /metrics registry). Call before traffic;
// nil disables a counter.
func (b *Bus) SetCounters(sheds, depth *atomic.Int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sheds = sheds
	b.depth = depth
}

// DefaultRetention is the per-document op-ring bound when none is
// configured: enough to absorb a briefly-disconnected editor's gap without
// holding a long editing history in memory per document.
const DefaultRetention = 1024

// NewBus returns an awareness bus whose op rings retain the latest
// retention events per document (<= 0 means DefaultRetention). Retention
// is the one bound on how far a subscriber may fall behind.
func NewBus(retention int) *Bus {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Bus{docs: make(map[util.ID]*docLog), retention: retention}
}

// SetRetention raises or lowers the bound on every document's op ring,
// now and for the rings created later. A ring that holds more than n
// events keeps its newest n; a buffer longer than n is reallocated at n
// slots, and no buffer grows until a push needs the room. n <= 0 restores
// the default.
func (b *Bus) SetRetention(n int) {
	if n <= 0 {
		n = DefaultRetention
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retention = n
	for _, d := range b.docs {
		if len(d.ring.buf) > n {
			d.ring.realloc(n)
		}
	}
}

// Retention returns the per-document op-ring bound: the most events a
// document's ring holds.
func (b *Bus) Retention() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retention
}

// logLocked returns doc's part of the bus, creating it on first use.
func (b *Bus) logLocked(doc util.ID) *docLog {
	d := b.docs[doc]
	if d == nil {
		d = &docLog{doc: doc, presence: make(map[string]*Presence)}
		d.wake.L = &b.mu
		b.docs[doc] = d
	}
	return d
}

// evRing is a circular buffer of the latest published events of one
// document, dense in sequence number. Its memory follows the events it
// holds, not the retention: the buffer is one slot on the first push and
// doubles whenever a push finds it full and shorter than the retention;
// only a full buffer as long as the retention evicts its oldest event.
type evRing struct {
	buf   []Event
	start int // index of the oldest retained event
	n     int // events currently retained
}

func (r *evRing) push(e Event, retention int) {
	if r.n == len(r.buf) && len(r.buf) < retention {
		r.realloc(min(max(2*len(r.buf), 1), retention))
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// at returns the retained event with sequence number seq.
func (r *evRing) at(seq uint64) (Event, bool) {
	if r.n == 0 {
		return Event{}, false
	}
	oldest := r.buf[r.start].Seq
	if seq < oldest || seq-oldest >= uint64(r.n) {
		return Event{}, false
	}
	return r.buf[(r.start+int(seq-oldest))%len(r.buf)], true
}

// realloc moves the newest min(size, retained) events into a fresh buffer
// of size slots.
func (r *evRing) realloc(size int) {
	keep := min(size, r.n)
	buf := make([]Event, size)
	for i := 0; i < keep; i++ {
		buf[i] = r.buf[(r.start+r.n-keep+i)%len(r.buf)]
	}
	r.buf, r.start, r.n = buf, 0, keep
}

// Subscribe registers for events on doc published from now on. The zero
// SubscribeOpts value means no filter.
func (b *Bus) Subscribe(doc util.ID, opts SubscribeOpts) *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.logLocked(doc)
	d.subs++
	return &Subscription{bus: b, log: d, filter: opts.Filter, next: d.seq + 1}
}

// Publish assigns the event its per-document sequence number, stores it in
// the document's op ring and wakes the document's subscribers. It never
// waits for a subscriber: a slow one falls behind, and past the ring it
// gets a gap.
func (b *Bus) Publish(e Event) uint64 { return b.PublishWith(e, nil) }

// PublishWith is Publish with a hook invoked while the bus lock is held,
// immediately after the event's sequence number is assigned and before any
// subscriber can read the event. Writers use it to publish a document
// state snapshot atomically with the event announcing it: because Seq()
// readers take the same lock, no reader can observe the new sequence
// number without the state it describes, or vice versa.
func (b *Bus) PublishWith(e Event, fn func(seq uint64)) uint64 {
	b.mu.Lock()
	d := b.logLocked(e.Doc)
	d.seq++
	e.Seq = d.seq
	if e.Wire == nil {
		e.Wire = &WireCache{}
	}
	if fn != nil {
		fn(e.Seq)
	}
	d.ring.push(e, b.retention)
	add(b.depth, d.subs)
	b.mu.Unlock()
	d.wake.Broadcast()
	return e.Seq
}

// Seq returns the latest published sequence number for doc.
func (b *Bus) Seq(doc util.ID) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if d := b.docs[doc]; d != nil {
		return d.seq
	}
	return 0
}

// Join records user as present in doc and publishes EvJoin.
func (b *Bus) Join(doc util.ID, user string, at time.Time) {
	b.mu.Lock()
	b.logLocked(doc).presence[user] = &Presence{User: user, LastSeen: at}
	b.mu.Unlock()
	b.Publish(Event{Doc: doc, Kind: EvJoin, User: user, At: at})
}

// Leave removes user from doc's presence and publishes EvLeave.
func (b *Bus) Leave(doc util.ID, user string, at time.Time) {
	b.mu.Lock()
	delete(b.logLocked(doc).presence, user)
	b.mu.Unlock()
	b.Publish(Event{Doc: doc, Kind: EvLeave, User: user, At: at})
}

// MoveCursor updates user's cursor position in doc and publishes EvCursor.
func (b *Bus) MoveCursor(doc util.ID, user string, pos int, at time.Time) {
	b.mu.Lock()
	m := b.logLocked(doc).presence
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
	var out []Presence
	if d := b.docs[doc]; d != nil {
		out = make([]Presence, 0, len(d.presence))
		for _, p := range d.presence {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}
