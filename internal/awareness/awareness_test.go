package awareness

import (
	"testing"
	"time"

	"tendax/internal/util"
)

func TestPublishSubscribe(t *testing.T) {
	bus := NewBus(8)
	doc := util.ID(1)
	sub := bus.Subscribe(doc, SubscribeOpts{})
	defer sub.Close()

	seq := bus.Publish(Event{Doc: doc, Kind: EvInsert, User: "alice", Text: "hi"})
	if seq != 1 {
		t.Fatalf("first seq = %d", seq)
	}
	ev, ok := sub.Next()
	if !ok || ev.Kind != EvInsert || ev.User != "alice" || ev.Seq != 1 {
		t.Fatalf("event = %+v ok=%v", ev, ok)
	}
}

func TestSequencePerDocument(t *testing.T) {
	bus := NewBus(8)
	a, b := util.ID(1), util.ID(2)
	bus.Publish(Event{Doc: a, Kind: EvInsert})
	bus.Publish(Event{Doc: a, Kind: EvInsert})
	if got := bus.Publish(Event{Doc: b, Kind: EvInsert}); got != 1 {
		t.Fatalf("doc b first seq = %d", got)
	}
	if bus.Seq(a) != 2 || bus.Seq(b) != 1 {
		t.Fatalf("Seq: a=%d b=%d", bus.Seq(a), bus.Seq(b))
	}
}

func TestMultipleSubscribersAllReceive(t *testing.T) {
	bus := NewBus(8)
	doc := util.ID(3)
	subs := []*Subscription{
		bus.Subscribe(doc, SubscribeOpts{}),
		bus.Subscribe(doc, SubscribeOpts{}),
		bus.Subscribe(doc, SubscribeOpts{}),
	}
	bus.Publish(Event{Doc: doc, Kind: EvDelete, N: 2})
	for i, s := range subs {
		ev, ok := s.Next()
		if !ok || ev.Kind != EvDelete || ev.N != 2 {
			t.Fatalf("subscriber %d got %+v ok=%v", i, ev, ok)
		}
		s.Close()
	}
}

func TestUnsubscribedReceivesNothing(t *testing.T) {
	bus := NewBus(8)
	doc := util.ID(4)
	sub := bus.Subscribe(doc, SubscribeOpts{})
	sub.Close()
	bus.Publish(Event{Doc: doc, Kind: EvInsert})
	if _, ok := sub.Next(); ok {
		t.Fatal("closed subscription received event")
	}
}

func TestSubscribeFilterRedactsAndDrops(t *testing.T) {
	bus := NewBus(8)
	doc := util.ID(10)
	sub := bus.Subscribe(doc, SubscribeOpts{
		Filter: func(e Event) (Event, bool) {
			if e.Kind == EvCursor {
				return Event{}, false // suppress presence noise
			}
			e.Text = "xxx" // redact content
			return e, true
		},
	})
	defer sub.Close()
	bus.Publish(Event{Doc: doc, Kind: EvCursor, Pos: 1})
	bus.Publish(Event{Doc: doc, Kind: EvInsert, Text: "secret"})
	ev, ok := sub.Next()
	if !ok || ev.Kind != EvInsert {
		t.Fatalf("filter did not drop cursor event: %+v", ev)
	}
	if ev.Text != "xxx" {
		t.Fatalf("filter did not redact: %q", ev.Text)
	}
}

func TestPresenceJoinLeaveCursor(t *testing.T) {
	bus := NewBus(16)
	doc := util.ID(6)
	now := time.Unix(100, 0)
	bus.Join(doc, "alice", now)
	bus.Join(doc, "bob", now)
	bus.MoveCursor(doc, "bob", 42, now.Add(time.Second))

	ps := bus.Present(doc)
	if len(ps) != 2 || ps[0].User != "alice" || ps[1].User != "bob" {
		t.Fatalf("present = %+v", ps)
	}
	if ps[1].Cursor != 42 {
		t.Fatalf("bob cursor = %d", ps[1].Cursor)
	}
	bus.Leave(doc, "alice", now.Add(2*time.Second))
	ps = bus.Present(doc)
	if len(ps) != 1 || ps[0].User != "bob" {
		t.Fatalf("present after leave = %+v", ps)
	}
}

func TestPresenceEventsArePublished(t *testing.T) {
	bus := NewBus(16)
	doc := util.ID(7)
	sub := bus.Subscribe(doc, SubscribeOpts{})
	defer sub.Close()
	now := time.Unix(1, 0)
	bus.Join(doc, "alice", now)
	bus.MoveCursor(doc, "alice", 3, now)
	bus.Leave(doc, "alice", now)
	kinds := []EventKind{}
	for i := 0; i < 3; i++ {
		ev, ok := sub.Next()
		if !ok {
			t.Fatalf("subscription closed after %d events", i)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []EventKind{EvJoin, EvCursor, EvLeave}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v", kinds)
		}
	}
}
