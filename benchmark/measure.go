package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of v by nearest rank,
// or 0 when there are no samples. v is sorted in place.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(p/100*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b, and 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settledHeap is HeapAlloc after two collections: the second one frees
// what finalizers and sync.Pools released during the first.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// keyClock pairs the moment an author typed each key with the moment the
// co-author's replica showed it. Keys are identified by their ordinal in
// the author's stream: one connection's edits commit and are pushed in the
// order they were sent, so the n-th rune the peer folds from this author is
// the n-th key typed.
type keyClock struct {
	mu    sync.Mutex
	typed []time.Time
	seen  []time.Time
}

func newKeyClock(capacity int) *keyClock {
	return &keyClock{typed: make([]time.Time, 0, capacity), seen: make([]time.Time, 0, capacity)}
}

// markTyped records n keys typed at the same instant (one Type call).
func (k *keyClock) markTyped(at time.Time, n int) {
	k.mu.Lock()
	for i := 0; i < n; i++ {
		k.typed = append(k.typed, at)
	}
	k.mu.Unlock()
}

// markSeen records that the peer's replica folded the author's next n keys.
func (k *keyClock) markSeen(at time.Time, n int) {
	k.mu.Lock()
	for i := 0; i < n; i++ {
		k.seen = append(k.seen, at)
	}
	k.mu.Unlock()
}

// drain appends the key-to-peer latencies in milliseconds to out, resets
// the clock, and reports how many typed keys the peer never showed.
func (k *keyClock) drain(out []float64) ([]float64, int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := len(k.seen)
	if len(k.typed) < n {
		n = len(k.typed)
	}
	for i := 0; i < n; i++ {
		out = append(out, ms(k.seen[i].Sub(k.typed[i])))
	}
	missing := len(k.typed) - n
	k.typed, k.seen = k.typed[:0], k.seen[:0]
	return out, missing
}
