// E17 micro-benchmarks: awareness fan-out under the bounded-queue
// subscription API. BenchmarkE17Fanout measures publish cost against a
// large fleet of draining subscribers; BenchmarkE17ShedOverflow measures
// the overflow path itself — publishing into full queues that coalesce
// into gap markers — which is the storm's steady state for slow
// consumers. The full storm experiment (shed, ring heal, byte-for-byte
// reconvergence, typed throttling) runs as `tendax-bench -exp e17`.
package tendax

import (
	"testing"

	"tendax/internal/awareness"
	"tendax/internal/util"
)

func BenchmarkE17Fanout(b *testing.B) {
	const subscribers = 256
	bus := awareness.NewBus(64)
	doc := util.ID(1)
	done := make(chan struct{})
	subs := make([]*awareness.Subscription, subscribers)
	for i := range subs {
		subs[i] = bus.Subscribe(doc, awareness.SubscribeOpts{QueueLimit: 64})
		go func(s *awareness.Subscription) {
			for {
				if _, ok := s.Next(); !ok {
					done <- struct{}{}
					return
				}
			}
		}(subs[i])
	}
	ev := awareness.Event{Doc: doc, Kind: awareness.EvInsert, User: "bench", Text: "x", N: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
	b.StopTimer()
	for _, s := range subs {
		s.Close()
	}
	for range subs {
		<-done
	}
	b.ReportMetric(float64(subscribers), "subs")
}

func BenchmarkE17ShedOverflow(b *testing.B) {
	// One subscriber that never drains: every publish after the fourth
	// hits the overflow path and folds into the coalesced gap marker.
	bus := awareness.NewBus(64)
	doc := util.ID(1)
	sub := bus.Subscribe(doc, awareness.SubscribeOpts{QueueLimit: 4})
	defer sub.Close()
	ev := awareness.Event{Doc: doc, Kind: awareness.EvInsert, User: "bench", Text: "x", N: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
	b.StopTimer()
	if b.N > 8 && sub.Sheds() == 0 {
		b.Fatal("overflow never shed")
	}
}
