package awareness

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/util"
)

// modelSub is the model of one subscription: a read position into its
// document's sequence, frozen at close.
type modelSub struct {
	sub      *Subscription
	doc      util.ID
	from     uint64 // first sequence number it may deliver
	next     uint64
	closed   bool
	end      uint64
	sheds    int64
	maxDepth int
	got      []Event // everything Next returned, gaps included
}

func (m *modelSub) head(seq uint64) uint64 {
	if m.closed {
		return m.end
	}
	return seq
}

// cursorModel is the whole bus as plain counters: per document the newest
// sequence number, how many of the newest events the ring still holds, and
// what each published event was.
type cursorModel struct {
	retention int
	seq       map[util.ID]uint64
	retained  map[util.ID]int
	published map[util.ID][]Event // index seq-1
	subs      []*modelSub
}

func (m *cursorModel) oldest(doc util.ID) uint64 {
	return m.seq[doc] - uint64(m.retained[doc]) + 1
}

func (m *cursorModel) lag(s *modelSub) int { return int(s.head(m.seq[s.doc]) + 1 - s.next) }

// TestCursorBusMatchesModel drives seeded interleavings of Publish, Join,
// MoveCursor, Leave, Subscribe, Next, Close and SetRetention over two
// documents with a 4–32 event ring — a new bound often lands below, at or
// above a ring that has grown only part of the way — and after every step
// checks each subscription against a model in which a subscription is
// nothing but a read position: what Next returns (the exact published
// event, or one gap whose Seq and N account for every event it skips),
// Depth, Sheds and MaxDepth, the bus-wide shed and depth counters,
// EventsSince, and that each ring holds the events the model retains in at
// most twice their slots. At the end every subscription is closed and
// drained: events published before Close are delivered, and each stream is
// dense from its subscribe point apart from the gaps.
func TestCursorBusMatchesModel(t *testing.T) {
	const seeds = 12
	partial := 0
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { partial += cursorModelRun(t, seed) })
	}
	if partial < seeds {
		t.Fatalf("%d new bounds over %d seeds met a partly grown ring, want at least %d", partial, seeds, seeds)
	}
}

// cursorModelRun runs one seed and returns how many SetRetention steps met
// a ring grown only part of the way to the bound.
func cursorModelRun(t *testing.T, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	m := &cursorModel{
		retention: 4 + rng.Intn(13),
		seq:       map[util.ID]uint64{},
		retained:  map[util.ID]int{},
		published: map[util.ID][]Event{},
	}
	bus := NewBus(m.retention)
	var sheds, depth atomic.Int64
	bus.SetCounters(&sheds, &depth)
	docs := []util.ID{1, 2}
	users := []string{"ann", "bob", "cy"}
	at := time.Unix(0, 0)

	published := func(doc util.ID, e Event) {
		m.seq[doc]++
		m.retained[doc] = min(m.retained[doc]+1, m.retention)
		e.Seq = m.seq[doc]
		m.published[doc] = append(m.published[doc], e)
	}
	next := func(label string, s *modelSub) {
		t.Helper()
		ev, ok := s.sub.Next()
		lag := m.lag(s)
		if lag == 0 {
			if ok {
				t.Fatalf("%s: drained subscription delivered %+v", label, ev)
			}
			return
		}
		if !ok {
			t.Fatalf("%s: Next reported closure with %d events undelivered", label, lag)
		}
		s.maxDepth = max(s.maxDepth, lag)
		var want Event
		if s.next < m.oldest(s.doc) {
			head := s.head(m.seq[s.doc])
			want = Event{Seq: head, Doc: s.doc, Kind: EvGap, N: lag}
			s.sheds += int64(lag)
			s.next = head + 1
		} else {
			want = m.published[s.doc][s.next-1]
			s.next++
		}
		if ev.Seq != want.Seq || ev.Doc != want.Doc || ev.Kind != want.Kind || ev.N != want.N ||
			ev.User != want.User || ev.Pos != want.Pos {
			t.Fatalf("%s: Next = %+v, want %+v", label, ev, want)
		}
		s.got = append(s.got, ev)
	}
	check := func(label string) {
		t.Helper()
		var wantSheds, wantDepth int64
		for i, s := range m.subs {
			lag := m.lag(s)
			if got := s.sub.Depth(); got != lag {
				t.Fatalf("%s: sub %d Depth %d, want %d", label, i, got, lag)
			}
			if got := s.sub.Sheds(); got != s.sheds {
				t.Fatalf("%s: sub %d Sheds %d, want %d", label, i, got, s.sheds)
			}
			if got, want := s.sub.MaxDepth(), max(s.maxDepth, lag); got != want {
				t.Fatalf("%s: sub %d MaxDepth %d, want %d", label, i, got, want)
			}
			wantSheds += s.sheds
			if !s.closed {
				wantDepth += int64(lag)
			}
		}
		if sheds.Load() != wantSheds || depth.Load() != wantDepth {
			t.Fatalf("%s: bus counters sheds=%d depth=%d, want %d/%d",
				label, sheds.Load(), depth.Load(), wantSheds, wantDepth)
		}
		for _, doc := range docs {
			if got := bus.Seq(doc); got != m.seq[doc] {
				t.Fatalf("%s: doc %d Seq %d, want %d", label, doc, got, m.seq[doc])
			}
			// The ring holds what the model retains, in at most twice the
			// slots (one for one event) and never more than the retention.
			if d := bus.docs[doc]; d != nil {
				if n, slots := d.ring.n, len(d.ring.buf); n != m.retained[doc] ||
					slots > m.retention || slots > max(1, 2*(n-1)) {
					t.Fatalf("%s: doc %d ring holds %d events in %d slots, want %d in at most min(%d, max(1, %d))",
						label, doc, n, slots, m.retained[doc], m.retention, 2*(n-1))
				}
			}
			since := uint64(rng.Int63n(int64(m.seq[doc]) + 2))
			evs, ok := bus.EventsSince(doc, since)
			if wantOK := since >= m.seq[doc] || since+1 >= m.oldest(doc); ok != wantOK {
				t.Fatalf("%s: doc %d EventsSince(%d) covered=%v, want %v", label, doc, since, ok, wantOK)
			}
			if ok && since < m.seq[doc] {
				if uint64(len(evs)) != m.seq[doc]-since || evs[0].Seq != since+1 {
					t.Fatalf("%s: doc %d EventsSince(%d) = %d events from %d", label, doc, since, len(evs), evs[0].Seq)
				}
			}
		}
	}

	open := func() []*modelSub {
		var out []*modelSub
		for _, s := range m.subs {
			if !s.closed {
				out = append(out, s)
			}
		}
		return out
	}

	const steps = 400
	partial := 0
	for step := 0; step < steps; step++ {
		label := fmt.Sprintf("seed %d step %d (retention %d)", seed, step, m.retention)
		doc := docs[rng.Intn(len(docs))]
		user := users[rng.Intn(len(users))]
		switch op := rng.Intn(20); {
		case op < 6: // a burst of edits, sometimes longer than the ring
			for k := 1 + rng.Intn(1+m.retention/2); k > 0; k-- {
				e := Event{Doc: doc, Kind: EvInsert, User: user, Pos: step, At: at}
				bus.Publish(e)
				published(doc, e)
			}
		case op == 6:
			bus.Join(doc, user, at)
			published(doc, Event{Doc: doc, Kind: EvJoin, User: user})
		case op == 7:
			bus.MoveCursor(doc, user, step, at)
			published(doc, Event{Doc: doc, Kind: EvCursor, User: user, Pos: step})
		case op == 8:
			bus.Leave(doc, user, at)
			published(doc, Event{Doc: doc, Kind: EvLeave, User: user})
		case op < 11:
			if len(open()) < 4 {
				m.subs = append(m.subs, &modelSub{sub: bus.Subscribe(doc, SubscribeOpts{}),
					doc: doc, from: m.seq[doc] + 1, next: m.seq[doc] + 1})
			}
		case op < 17: // read one event, or catch up; never from an open, drained subscription, where Next blocks
			if len(m.subs) > 0 {
				s := m.subs[rng.Intn(len(m.subs))]
				for n := 1 + rng.Intn(2)*m.retention; n > 0 && (s.closed || m.lag(s) > 0); n-- {
					next(label, s)
				}
			}
		case op < 19:
			if subs := open(); len(subs) > 0 {
				s := subs[rng.Intn(len(subs))]
				s.sub.Close()
				s.closed, s.end = true, m.seq[s.doc]
				if rng.Intn(2) == 0 {
					s.sub.Close() // idempotent
				}
			}
		case op == 19: // a new bound, often while rings are only partly grown
			n, slots := 4+rng.Intn(13), 0
			if d := bus.docs[doc]; d != nil {
				slots = len(d.ring.buf)
			}
			for _, d := range bus.docs {
				if l := len(d.ring.buf); l > 0 && l < m.retention {
					partial++
					break
				}
			}
			switch {
			case rng.Intn(3) == 0:
				n = 2 * n // rings grow towards it from where they are
			case slots > 1 && rng.Intn(2) == 0:
				n = slots - 1 + rng.Intn(3) // below, at or above doc's buffer
			}
			bus.SetRetention(n)
			m.retention = n
			for d := range m.retained {
				m.retained[d] = min(m.retained[d], n)
			}
		}
		check(label)
	}

	// Close everything, drain, and check each stream end to end.
	for _, s := range m.subs {
		s.sub.Close()
		if !s.closed {
			s.closed, s.end = true, m.seq[s.doc]
		}
	}
	for i, s := range m.subs {
		for m.lag(s) > 0 {
			next(fmt.Sprintf("seed %d drain sub %d", seed, i), s)
		}
		if ev, ok := s.sub.Next(); ok {
			t.Fatalf("seed %d sub %d: drained subscription delivered %+v", seed, i, ev)
		}
		want := s.from
		for _, ev := range s.got {
			first := ev.Seq
			if ev.Kind == EvGap {
				first = ev.Seq - uint64(ev.N) + 1
			}
			if first != want {
				t.Fatalf("seed %d sub %d: stream jumps to %d (%s), want %d", seed, i, first, ev.Kind, want)
			}
			want = ev.Seq + 1
		}
		if want != s.end+1 {
			t.Fatalf("seed %d sub %d: stream ends at %d, closed at %d", seed, i, want-1, s.end)
		}
	}
	check("after drain")
	gapless := 0
	for _, s := range m.subs {
		if s.sheds == 0 && len(s.got) > 0 {
			gapless++
		}
	}
	if sheds.Load() == 0 || gapless == 0 {
		t.Fatalf("seed %d: the run never exercised both a gap and a gapless stream (sheds %d, gapless %d)",
			seed, sheds.Load(), gapless)
	}
	return partial
}

// TestSetRetentionKeepsNewestEvents pins that resizing the op ring keeps
// the newest min(n, retained) events of every document: a live cursor the
// smaller ring still covers reads on without a gap, one it no longer
// covers gets exactly one gap for the events cut, and growing the ring
// loses nothing.
func TestSetRetentionKeepsNewestEvents(t *testing.T) {
	bus := NewBus(8)
	doc := util.ID(1)
	near := bus.Subscribe(doc, SubscribeOpts{})
	for i := 0; i < 4; i++ {
		bus.Publish(Event{Doc: doc, Kind: EvInsert, Pos: i})
	}
	far := bus.Subscribe(doc, SubscribeOpts{})
	bus.Publish(Event{Doc: doc, Kind: EvInsert, Pos: 4})
	for i := 0; i < 2; i++ {
		if ev, _ := near.Next(); ev.Seq != uint64(i+1) {
			t.Fatalf("before resize: seq %d, want %d", ev.Seq, i+1)
		}
	}
	bus.SetRetention(16) // growing keeps all five
	if evs, ok := bus.EventsSince(doc, 0); !ok || len(evs) != 5 {
		t.Fatalf("after growing: covered=%v n=%d, want all 5", ok, len(evs))
	}
	bus.SetRetention(2) // keeps seq 4 and 5
	if evs, ok := bus.EventsSince(doc, 3); !ok || len(evs) != 2 || evs[0].Seq != 4 {
		t.Fatalf("after shrinking: covered=%v %+v", ok, evs)
	}
	if _, ok := bus.EventsSince(doc, 2); ok {
		t.Fatal("seq 3 survived a resize to 2")
	}
	// far's next event (seq 5) is still retained: no gap.
	if ev, _ := far.Next(); ev.Kind != EvInsert || ev.Seq != 5 || far.Sheds() != 0 {
		t.Fatalf("covered cursor got %+v after the resize (sheds %d)", ev, far.Sheds())
	}
	// near's next event (seq 3) was cut: one gap for 3..5.
	if ev, _ := near.Next(); ev.Kind != EvGap || ev.Seq != 5 || ev.N != 3 || near.Sheds() != 3 {
		t.Fatalf("cut cursor got %+v (sheds %d), want a gap at 5 over 3 events", ev, near.Sheds())
	}
	bus.Publish(Event{Doc: doc, Kind: EvInsert, Pos: 5})
	for _, s := range []*Subscription{near, far} {
		if ev, _ := s.Next(); ev.Seq != 6 {
			t.Fatalf("after the resize: seq %d, want 6", ev.Seq)
		}
		s.Close()
	}
}
