package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a module's public API.
// Times are nanoseconds since the tracer was created. Parent is the ID of
// the span that caused this one (0 = none); Op is the driver's operation
// number, shared by every span of one keystroke or edit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Module string `json:"module"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Every method is safe on
// a nil tracer, which is how the untraced passes run: the call sites stay
// in place and cost one nil check.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// current is the span the single-threaded direct-drive replays are
	// inside, so the storage wrappers can name it as their parent. Zero
	// during the live passes, where appends run on the flusher goroutine.
	current atomic.Int64
}

func newTracer() *tracer {
	// Sized for the largest traced pass so appends do not reallocate
	// while a phase is being timed.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<19)}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(module, name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Module: module, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// enter marks id as the span storage calls made from this point belong
// to, and returns the previous one for leave.
func (t *tracer) enter(id int) int {
	if t == nil {
		return 0
	}
	return int(t.current.Swap(int64(id)))
}

func (t *tracer) leave(prev int) {
	if t != nil {
		t.current.Store(int64(prev))
	}
}

func (t *tracer) parent() int {
	if t == nil {
		return 0
	}
	return int(t.current.Load())
}

// selfTime is the per-name summary of a trace: how often the span ran, its
// total time, and its self time — the span minus the part its children
// cover (core.apply minus the wal.append spans it caused).
type selfTime struct {
	Module  string  `json:"module"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNS := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent == 0 || s.End == 0 {
			continue
		}
		p := t.spans[s.Parent-1]
		from, to := s.Start, s.End
		if from < p.Start {
			from = p.Start
		}
		if p.End != 0 && to > p.End {
			to = p.End
		}
		if to > from {
			childNS[s.Parent] += to - from
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		key := s.Module + "." + s.Name
		st := byName[key]
		if st == nil {
			st = &selfTime{Module: s.Module, Name: s.Name}
			byName[key] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-childNS[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write stores the spans and their summary as JSON at path.
func (t *tracer) write(path string) error {
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Summary []selfTime `json:"summary"`
		Spans   []span     `json:"spans"`
	}{sum, t.spans}); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
