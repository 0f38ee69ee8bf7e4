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
// replicas, and the peer's replica folds it. It measured 14.5 as an exact
// mean, 14 as testing.AllocsPerRun's floored one (15 while the
// text mirror held a slot per instance, so a key typed into the 20k
// characters copied a leaf and two inner nodes rather than a leaf and the
// root; 21 while the
// transaction's undo entries were closures and each row encoder allocated
// a fresh buffer, 22 while a
// batch allocated each op's log record on its own, 23 while the
// published item and the result took a second copy of the key's ID slice,
// 24 while its op row's payload was a fresh slice of 8-byte IDs, 25 while
// the text buffer gave each key a treap node of its own, 29 while each
// index entry allocated its own key copy, each floored); the budget is
// the exact mean plus 10 %, rounded down.
const maxOneKeyRoundTripAllocs = 15

// The stages below have budgets of their own, because one allocation more
// per frame would not trip the total's 10 % margin. A stage is compared
// truncated: the profile counts every allocation in the window, a stray
// one too.
const (
	// maxOneKeyServerDecodeAllocs bounds the server's decode of the key's
	// edit frame. It measured 0: the message and its op list are the serve
	// loop's, reused, and a one-byte text needs no allocation.
	maxOneKeyServerDecodeAllocs = 0

	// maxOneKeyClientDecodeAllocs bounds the clients' decode of the ack
	// and the two pushes: what the receivers keep, the pushes' user names
	// and the ack's ID list. All three are under 16 bytes and share the
	// allocator's tiny blocks, which are what the profile counts, so the
	// count depends on what else ran on the same processor; it measured
	// 1.2–1.5, and the budget is one block more.
	maxOneKeyClientDecodeAllocs = 2

	// maxOneKeyClientAllocs bounds the session and the read loops outside
	// the codec. It measured 0: the batch message, its op and the ack
	// handler are the session's, and a batch of one Type call sends the
	// caller's string.
	maxOneKeyClientAllocs = 0

	// maxOneKeyDBAllocs bounds the database layer: the heap and index
	// writes of the key's chars and op rows. It measured 0: their undo
	// entries are values in the transaction's inline buffer, and the rows
	// are encoded into the pooled batch's buffers (6 while each row's undo
	// was two closures and each encoder a fresh buffer).
	maxOneKeyDBAllocs = 0

	// maxOneKeyTxnAllocs bounds the transaction layer. It measured 1, the
	// Txn itself, which callers read after it ends.
	maxOneKeyTxnAllocs = 1
)

// maxOneKeyStageAllocs maps the stages with budgets of their own, by the
// names allocStages gives them, to those budgets.
var maxOneKeyStageAllocs = map[string]int{
	"server protocol decode": maxOneKeyServerDecodeAllocs,
	"client protocol decode": maxOneKeyClientDecodeAllocs,
	"client client":          maxOneKeyClientAllocs,
	"server db":              maxOneKeyDBAllocs,
	"server txn":             maxOneKeyTxnAllocs,
}

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
		c, err := client.New(clientEnd, client.WithUser(user))
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
	allocs := mallocsPerRun(keys, key)
	stages := allocStages(before, allocProfile(), 3*(keys+1)) // three rounds, each warmed up with one more
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, st := range stages {
		fmt.Fprintf(&b, "%-28s %5.1f\n", st.name, st.perKey)
	}
	// The profile records a block of the tiny allocator once, so the
	// stages can sum to less than the total.
	t.Logf("%.2f allocations per key; by stage:\n%s", allocs, b.String())
	if allocs > maxOneKeyRoundTripAllocs {
		t.Errorf("a key's round trip allocated %.1f times, over the budget of %d", allocs, maxOneKeyRoundTripAllocs)
	}
	for _, st := range stages {
		// Truncated, so a stray allocation in the window is not one per
		// key.
		if budget, ok := maxOneKeyStageAllocs[st.name]; ok && math.Floor(st.perKey) > float64(budget) {
			t.Errorf("stage %q allocated %.1f times per key, over its budget of %d", st.name, st.perKey, budget)
		}
	}
}

// mallocsPerRun returns the heap allocations of one call of body,
// averaged over runs calls: the exact mean, where testing.AllocsPerRun
// floors it. It takes three rounds and returns the least, since something
// else allocating in a round can only raise its count. As AllocsPerRun
// does, a round calls body once to warm up and counts
// runtime.MemStats.Mallocs with GOMAXPROCS at 1.
func mallocsPerRun(runs int, body func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := math.Inf(1)
	for round := 0; round < 3; round++ {
		body()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			body()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return least
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
