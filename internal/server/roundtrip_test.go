package server

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/protocol"
)

// maxOneKeyRoundTripAllocs bounds the heap allocations of one key's round
// trip through an in-process server: the author's session sends it, the
// server decodes, commits and acknowledges it and pushes it to both
// replicas, and the peer's replica folds it. It measured 60; the budget is
// that plus 10 %.
const maxOneKeyRoundTripAllocs = 66

// maxOneKeyServerDecodeAllocs bounds the server's share of that: decoding
// the key's edit frame (the message, its op list and the typed text). It
// measured 3; the budget is that plus 10 %, rounded down, so one
// allocation more trips it where the total's budget would not.
const maxOneKeyServerDecodeAllocs = 3

// TestOneKeyRoundTripAllocs types one key at a time into a 20k-character
// document, the way keystroke-bench's lockstep workload does — the author
// types a key and waits for its acknowledgement, and the key is done when
// the peer's replica shows it — with both clients speaking v3 over
// net.Pipe to an in-process server, and fails if a key allocates more
// than maxOneKeyRoundTripAllocs times on average, every goroutine of the
// process counted.
func TestOneKeyRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	t.Cleanup(func() {
		srv.Close()
		database.Close()
	})
	dial := func(user string) *client.Client {
		serverEnd, clientEnd := net.Pipe()
		srv.accept(serverEnd)
		c, err := client.New(clientEnd, client.WithMaxVersion(protocol.Version3), client.WithUser(user))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	author, peer := dial("alice"), dial("bob")

	d, err := eng.CreateDocument("alice", "round trip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, strings.Repeat("lorem ipsum ", 20_000/12+1)[:20_000]); err != nil {
		t.Fatal(err)
	}
	ad, err := author.Open(uint64(d.ID()))
	if err != nil {
		t.Fatal(err)
	}
	pd, err := peer.Open(uint64(d.ID()))
	if err != nil {
		t.Fatal(err)
	}
	shown := make(chan struct{}, 1)
	pd.Watch(func(ev protocol.Event) {
		if ev.User == "alice" && ev.Kind != protocol.EvPresence {
			shown <- struct{}{}
		}
	})
	s, err := ad.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MoveTo(ad.Len() / 3); err != nil {
		t.Fatal(err)
	}
	key := func() {
		if e := s.Type("k"); e != nil && err == nil {
			err = e
		}
		if e := s.Wait(); e != nil && err == nil {
			err = e
		}
		<-shown
	}
	for i := 0; i < 50; i++ { // warm the replicas, buffers and pools
		key()
	}
	const keys = 500
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocProfile()
	allocs := testing.AllocsPerRun(keys, key)
	stages := allocStages(before, allocProfile(), keys+1) // AllocsPerRun warms up with one more
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, st := range stages {
		fmt.Fprintf(&b, "%-28s %5.1f\n", st.name, st.perKey)
	}
	// The profile records a block of the tiny allocator once, so the
	// stages can sum to less than the total.
	t.Logf("%.1f allocations per key; by stage:\n%s", allocs, b.String())
	if allocs > maxOneKeyRoundTripAllocs {
		t.Errorf("a key's round trip allocated %.1f times, over the budget of %d", allocs, maxOneKeyRoundTripAllocs)
	}
	for _, st := range stages {
		// Truncated as AllocsPerRun truncates the total, so a stray
		// allocation in the window is not one per key.
		if st.name == "server protocol decode" && math.Floor(st.perKey) > maxOneKeyServerDecodeAllocs {
			t.Errorf("the server's decode of a key allocated %.1f times, over the budget of %d", st.perKey, maxOneKeyServerDecodeAllocs)
		}
	}
}

// allocProfile returns the process's allocation counts by call stack. The
// profile runs up to two garbage collections behind, so it runs two first:
// then every allocation so far is in it.
func allocProfile() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

type stageAllocs struct {
	name   string
	perKey float64
}

// allocStages divides the allocations made between two profiles by keys
// and attributes them to stages, largest first. A stage is the side of
// the connection (the server's connection goroutines, or the clients) and
// the innermost package of the tree on the stack; the codec is split into
// decode and encode.
func allocStages(before, after map[[32]uintptr]int64, keys int) []stageAllocs {
	counts := make(map[string]int64)
	for stack, n := range after {
		if n -= before[stack]; n > 0 {
			counts[stageOf(stack)] += n
		}
	}
	var out []stageAllocs
	for name, n := range counts {
		out = append(out, stageAllocs{name, float64(n) / float64(keys)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].perKey != out[j].perKey {
			return out[i].perKey > out[j].perKey
		}
		return out[i].name < out[j].name
	})
	return out
}

// stageOf names the stage of an allocation's call stack.
func stageOf(stack [32]uintptr) string {
	side, pkg := "", ""
	frames := runtime.CallersFrames(stack[:])
	for {
		f, more := frames.Next()
		name := strings.TrimPrefix(f.Function, "tendax/internal/")
		if name != f.Function {
			p, _, _ := strings.Cut(name, ".")
			switch {
			case strings.HasPrefix(name, "protocol.(*Codec).Recv"):
				pkg = "protocol decode"
			case strings.HasPrefix(name, "protocol.(*Codec).Send"):
				pkg = "protocol encode"
			case pkg == "":
				pkg = p
			}
			if side == "" && (p == "server" || p == "client") {
				side = p
			}
		}
		if !more {
			break
		}
	}
	switch {
	case pkg == "":
		pkg = "runtime"
	case side == "":
		side = "engine" // the WAL flusher, the checkpointer, the bus
	}
	if side == "" {
		return pkg
	}
	return side + " " + pkg
}
