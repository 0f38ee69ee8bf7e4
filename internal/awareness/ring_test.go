package awareness

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"tendax/internal/util"
)

func TestEventsSinceCoversRecentGap(t *testing.T) {
	b := NewBus(0)
	doc := util.ID(1)
	at := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Doc: doc, Kind: EvInsert, Pos: i, At: at})
	}
	evs, ok := b.EventsSince(doc, 7)
	if !ok {
		t.Fatal("recent gap not covered")
	}
	if len(evs) != 3 {
		t.Fatalf("events %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(8+i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	// Caught-up and ahead-of-current both cover trivially.
	if evs, ok := b.EventsSince(doc, 10); !ok || len(evs) != 0 {
		t.Fatalf("caught-up: %v %v", evs, ok)
	}
	if _, ok := b.EventsSince(doc, 99); !ok {
		t.Fatal("ahead-of-current should cover")
	}
}

func TestEventsSinceFallsBackPastRetention(t *testing.T) {
	b := NewBus(0)
	b.SetRetention(4)
	doc := util.ID(2)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Doc: doc, Kind: EvInsert, Pos: i})
	}
	// Gap of 4 fits exactly.
	evs, ok := b.EventsSince(doc, 6)
	if !ok || len(evs) != 4 {
		t.Fatalf("gap 4: ok=%v n=%d", ok, len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("window [%d,%d]", evs[0].Seq, evs[3].Seq)
	}
	// Gap of 5 outlives retention: full-resync signal.
	if _, ok := b.EventsSince(doc, 5); ok {
		t.Fatal("gap past retention reported as covered")
	}
	// A document the bus never saw: seq 0, everything covers.
	if _, ok := b.EventsSince(util.ID(404), 0); !ok {
		t.Fatal("unknown doc should cover trivially")
	}
}

func TestRingRetainsBatchPayload(t *testing.T) {
	b := NewBus(0)
	doc := util.ID(3)
	b.Publish(Event{Doc: doc, Kind: EvBatch, Batch: []BatchItem{
		{Kind: EvInsert, Pos: 0, Text: "hi", IDs: util.IDsOf([]util.ID{7, 8})},
		{Kind: EvDelete, Pos: 1, N: 1, IDs: util.Progression(7, 0, 1)},
	}})
	evs, ok := b.EventsSince(doc, 0)
	if !ok || len(evs) != 1 {
		t.Fatalf("ok=%v n=%d", ok, len(evs))
	}
	if len(evs[0].Batch) != 2 || evs[0].Batch[0].Text != "hi" {
		t.Fatalf("batch payload %+v", evs[0].Batch)
	}
}

// TestRingBytesPerQuietDocument gates the settled heap a document costs the
// bus after it has published one event: its log, its presence map, a ring
// of one slot and the event's wire cache. The reading is the least of three
// buses'. The limit is the measured value plus 10 %: 569 B. While the first
// push allocated the whole retention, a quiet document held 205 KB (1024
// slots of 200 B). A document that published more than the retention
// holds exactly that many events, in a buffer of that many slots.
func TestRingBytesPerQuietDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const docs = 500
	var b *Bus
	perDoc := leastOf3(func() float64 {
		b = NewBus(0)
		before := settledHeap()
		for i := 0; i < docs; i++ {
			b.Publish(Event{Doc: util.ID(1 + i), Kind: EvInsert, User: "ann", Pos: i})
		}
		perDoc := (float64(settledHeap()) - float64(before)) / docs
		runtime.KeepAlive(b)
		return perDoc
	})
	t.Logf("%.0f B of settled heap per quiet document", perDoc)
	if limit := 569.0; perDoc > limit {
		t.Errorf("%.0f B per quiet document, limit %.0f", perDoc, limit)
	}

	busy := util.ID(docs + 1)
	retention := b.Retention()
	for i := 0; i < retention+retention/2+1; i++ {
		b.Publish(Event{Doc: busy, Kind: EvInsert, Pos: i})
	}
	seq := b.Seq(busy)
	if evs, ok := b.EventsSince(busy, seq-uint64(retention)); !ok || len(evs) != retention {
		t.Fatalf("a busy document covers %d events (%v), want the retention %d", len(evs), ok, retention)
	}
	if _, ok := b.EventsSince(busy, seq-uint64(retention)-1); ok {
		t.Fatalf("a busy document holds more than the retention %d", retention)
	}
	if got := len(b.docs[busy].ring.buf); got != retention {
		t.Fatalf("a busy document's buffer has %d slots, want the retention %d", got, retention)
	}
}

// leastOf3 returns the least of three readings of measure. A settled-heap
// difference reads high, never low, when something else allocates between
// its two readings, so the least reading is the one a gate compares.
func leastOf3(measure func() float64) float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		least = min(least, measure())
	}
	return least
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRingGrowthKeepsCursors checks a ring that grows by doubling up to its
// retention of 64 and then wraps. Cursors parked at every doubling boundary
// (one before it, at it and one after) and past the wrap must each read
// every event after their subscribe point in order, or one gap whose N
// counts every event up to the newest, and EventsSince must answer every
// gap length. SetRetention below, at and above the length of a partly
// grown buffer and of a wrapped one must keep the newest events and the
// same cursor contract, reallocate only a buffer longer than the bound,
// and never grow one before a push needs the room.
func TestRingGrowthKeepsCursors(t *testing.T) {
	const retention = 64
	var parks []uint64 // sequence numbers to park a cursor at
	for p := 1; p <= retention; p *= 2 {
		parks = append(parks, uint64(p-1), uint64(p), uint64(p+1))
	}
	parks = append(parks, retention+retention/2, 2*retention, 2*retention+1)

	for _, total := range []uint64{1, 2, 3, 5, 8, 9, 16, 17, 33, 63, 64, 65, 96, 128, 129, 3 * retention} {
		t.Run(fmt.Sprint("total", total), func(t *testing.T) {
			b := NewBus(retention)
			doc := util.ID(1)
			live := b.Subscribe(doc, SubscribeOpts{})
			cursors := map[uint64]*Subscription{}
			for seq := uint64(0); seq < total; seq++ {
				if slices.Contains(parks, seq) {
					cursors[seq] = b.Subscribe(doc, SubscribeOpts{})
				}
				b.Publish(Event{Doc: doc, Kind: EvInsert, Pos: int(seq)})
				// A cursor that keeps up reads across every reallocation.
				if ev, _ := live.Next(); ev.Kind != EvInsert || ev.Seq != seq+1 {
					t.Fatalf("live cursor read %+v, want seq %d", ev, seq+1)
				}
				if r := &b.docs[doc].ring; len(r.buf) < r.n || len(r.buf) > max(1, 2*(r.n-1)) {
					t.Fatalf("after %d pushes the ring holds %d events in %d slots", seq+1, r.n, len(r.buf))
				}
			}
			checkCursors(t, b, doc, cursors, total, retention)
			checkEventsSince(t, b, doc, total, retention)
		})
	}

	// A new bound over a buffer grown part of the way (32 slots holding 20
	// events under a retention of 64) and over a full one that has wrapped
	// (16 slots holding the newest 16 of 21 events, the oldest in slot 5).
	for _, c := range []struct {
		name              string
		retention, pushes int
		bound, wantSlots  int
	}{
		{"below its events", retention, 20, 12, 12},
		{"between its events and its length", retention, 20, 24, 24},
		{"at its length", retention, 20, 32, 32},
		{"above its length", retention, 20, 100, 32},
		{"below a wrapped ring", 16, 21, 8, 8},
		{"at a wrapped ring", 16, 21, 16, 16},
		{"above a wrapped ring", 16, 21, 40, 16},
	} {
		t.Run("SetRetention "+c.name, func(t *testing.T) {
			b := NewBus(c.retention)
			doc := util.ID(1)
			cursors := map[uint64]*Subscription{}
			for seq := uint64(0); seq < uint64(c.pushes); seq++ {
				cursors[seq] = b.Subscribe(doc, SubscribeOpts{})
				b.Publish(Event{Doc: doc, Kind: EvInsert, Pos: int(seq)})
			}
			r := &b.docs[doc].ring
			slots, held := len(r.buf), r.n
			first := &r.buf[0]
			b.SetRetention(c.bound)
			if len(r.buf) != c.wantSlots || r.n != min(held, c.bound) {
				t.Fatalf("%d events in %d slots, then the bound %d: %d events in %d slots, want %d in %d",
					held, slots, c.bound, r.n, len(r.buf), min(held, c.bound), c.wantSlots)
			}
			if (c.wantSlots == slots) != (first == &r.buf[0]) {
				t.Fatal("a buffer no longer than the bound was reallocated, or a longer one kept")
			}
			checkEventsSince(t, b, doc, uint64(c.pushes), min(held, c.bound))
			// Publish on past the new bound: the buffer grows to it, not
			// beyond, and then wraps.
			const total = 3 * 100
			for seq := uint64(c.pushes); seq < total; seq++ {
				if seq%7 == 0 {
					cursors[seq] = b.Subscribe(doc, SubscribeOpts{})
				}
				b.Publish(Event{Doc: doc, Kind: EvInsert, Pos: int(seq)})
				if len(r.buf) > max(c.bound, c.wantSlots) {
					t.Fatalf("after %d pushes the buffer has %d slots, over the bound %d", seq+1, len(r.buf), c.bound)
				}
			}
			if len(r.buf) != c.bound {
				t.Fatalf("a full ring has %d slots, want the bound %d", len(r.buf), c.bound)
			}
			checkCursors(t, b, doc, cursors, total, c.bound)
			checkEventsSince(t, b, doc, total, c.bound)
		})
	}
}

// checkCursors drains each cursor, parked right after the event its key
// names, from a ring holding the newest min(total, retention) of total
// events: it must read every later event in order, or, when the ring has
// evicted the next one, one gap at total over all of them.
func checkCursors(t *testing.T, b *Bus, doc util.ID, cursors map[uint64]*Subscription, total uint64, retention int) {
	t.Helper()
	oldest := uint64(1)
	if total > uint64(retention) {
		oldest = total - uint64(retention) + 1
	}
	for park, s := range cursors {
		s.Close()
		if park+1 < oldest {
			ev, ok := s.Next()
			if !ok || ev.Kind != EvGap || ev.Seq != total || ev.N != int(total-park) {
				t.Fatalf("cursor parked at %d: read %+v, want one gap at %d over %d events", park, ev, total, total-park)
			}
		} else {
			for want := park + 1; want <= total; want++ {
				if ev, ok := s.Next(); !ok || ev.Kind != EvInsert || ev.Seq != want || ev.Pos != int(want-1) {
					t.Fatalf("cursor parked at %d: read %+v, want seq %d", park, ev, want)
				}
			}
		}
		if ev, ok := s.Next(); ok {
			t.Fatalf("cursor parked at %d: read %+v past the end", park, ev)
		}
	}
}

// checkEventsSince asks for every gap length, none to one past the
// retention and the whole history.
func checkEventsSince(t *testing.T, b *Bus, doc util.ID, total uint64, retention int) {
	t.Helper()
	for since := uint64(0); since <= total; since++ {
		evs, ok := b.EventsSince(doc, since)
		if want := total-since <= uint64(retention); ok != want {
			t.Fatalf("EventsSince(%d) of %d events, retention %d: covered=%v, want %v", since, total, retention, ok, want)
		}
		if !ok {
			continue
		}
		if uint64(len(evs)) != total-since {
			t.Fatalf("EventsSince(%d) of %d events: %d returned", since, total, len(evs))
		}
		for i, ev := range evs {
			if ev.Seq != since+1+uint64(i) || ev.Pos != int(since)+i {
				t.Fatalf("EventsSince(%d): event %d is %+v", since, i, ev)
			}
		}
	}
}
