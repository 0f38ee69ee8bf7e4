package core

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tendax/internal/db"
	"tendax/internal/util"
)

// TestOpHeadSize pins the op-log cache entry at 48 bytes or less: the cache
// grows by one per committed op for as long as the document is open. It
// was 64 while the head named its kind by a string.
// perm is a permutation of [0, n) drawn from r.
func perm(r *util.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// rowCount counts tbl's rows by a scan.
func rowCount(t *testing.T, tbl *db.Table) int {
	t.Helper()
	n := 0
	if err := tbl.Scan(nil, func(db.RID, db.Row) (bool, error) { n++; return true, nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestOpHeadSize(t *testing.T) {
	if n := unsafe.Sizeof(opHead{}); n > 48 {
		t.Fatalf("an opHead is %d B, want at most 48", n)
	}
}

// TestOpKindCodes pins the ops table's kind codes: a code renumbered or
// reused would read every stored op of that kind as another kind, and a
// code no kind has is refused.
func TestOpKindCodes(t *testing.T) {
	want := []string{1: "insert", "paste", "delete", "layout", "layout-remove",
		"restore", "undo", "redo", "copy", "state"}
	if !slices.Equal(opKindNames[:], want) {
		t.Fatalf("op kind codes %q, want %q", opKindNames, want)
	}
	for code := range want {
		k, err := opKindOf(int64(code))
		if code == 0 {
			if err == nil {
				t.Errorf("code 0 read as %v", k)
			}
			continue
		}
		if err != nil || k.String() != want[code] {
			t.Errorf("code %d reads as %v, %v; want %s", code, k, err, want[code])
		}
	}
	if k, err := opKindOf(int64(len(want))); err == nil {
		t.Errorf("code %d, past the table, read as %v", len(want), k)
	}
}

// TestOpLogBytesPerOp gates the settled heap the op-log cache retains per
// one-key op: what dropping the cache of a document typed one key at a
// time frees: 48 B a head and the slice's growth room, at most an eighth.
// The reading is the least of three documents'. The limit is the measured
// value plus 10 %: 57.2 B. With a 64-byte head that named its kind by a
// string it read 68.0 B, while the log grew by append 82.0 B, and while
// the cache held each op's whole record and ID slice 133.9 B.
func TestOpLogBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const ops = 4096 // four times the bus's retention, which also holds IDs
	perOp := leastOf3(func() float64 {
		e := newEngine(t)
		d, err := e.CreateDocument("alice", "oplog")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ops; i++ {
			if _, err := d.AppendText("alice", "x"); err != nil {
				t.Fatal(err)
			}
		}
		with := settledHeap()
		d.mu.Lock()
		d.ops = nil
		d.mu.Unlock()
		perOp := (float64(with) - float64(settledHeap())) / ops
		runtime.KeepAlive(d)
		return perOp
	})
	t.Logf("%.1f B of settled heap per one-key op in the op-log cache", perOp)
	if limit := 57.2; perOp > limit {
		t.Errorf("%.1f B per op, limit %.1f", perOp, limit)
	}
}

// TestRingBytesPerEvent gates the settled heap the bus's op ring holds per
// event of a document typed in appends of 500 runes: what lowering the
// retention to one event frees, over the 199 events it drops. An event
// holds its slot in the ring and its text; the 500 instances it created
// are one stretch inside the slot. The reading is the least of three
// documents'. The limit is the measured value plus 10 %: 985 B. While an
// event held its instances as a slice of 8 B each it read 4991 B.
func TestRingBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const appends, runes = 200, 500
	perEvent := leastOf3(func() float64 {
		e := newEngine(t)
		d, err := e.CreateDocument("alice", "ring")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < appends; i++ {
			if _, err := d.AppendText("alice", strings.Repeat(string(rune('a'+i%26)), runes)); err != nil {
				t.Fatal(err)
			}
		}
		with := settledHeap()
		e.Bus().SetRetention(1)
		perEvent := (float64(with) - float64(settledHeap())) / (appends - 1)
		runtime.KeepAlive(d)
		return perEvent
	})
	t.Logf("%.0f B of settled heap per event in the op ring", perEvent)
	if limit := 985.0; perEvent > limit {
		t.Errorf("%.0f B per event, limit %.0f", perEvent, limit)
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

// mallocsPerRun returns the heap allocations of one call of a body,
// averaged over runs calls: the exact mean, where testing.AllocsPerRun
// floors it. It takes three rounds, each over the body a fresh call of
// prepare returns, and returns the least, since something else allocating
// in a round can only raise its count. As AllocsPerRun does, a round calls
// the body once to warm up and counts runtime.MemStats.Mallocs with
// GOMAXPROCS at 1.
func mallocsPerRun(runs int, prepare func() (body func())) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return leastOf3(func() float64 {
		body := prepare()
		body()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			body()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(runs)
	})
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestUndoRedoReadsOpRows undoes and redoes, on a handle that was never
// reopened, ops whose IDs only their rows hold: a delete whose payload
// spills into opchunks rows (the undo and redo rows spill too), a delete
// that compaction archived, and a layout op, which names its span by Ref.
func TestUndoRedoReadsOpRows(t *testing.T) {
	type step struct {
		redo bool
		want string
	}
	steps := func(t *testing.T, d *Document, user string, seq []step) {
		t.Helper()
		for i, s := range seq {
			var err error
			if s.redo {
				_, err = d.RedoLocal(user)
			} else {
				_, err = d.UndoLocal(user)
			}
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if got := d.Text(); got != s.want {
				t.Fatalf("step %d: text %q, want %q", i, got, s.want)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}

	t.Run("spilled", func(t *testing.T) {
		e := newEngine(t)
		d, err := e.CreateDocument("alice", "big")
		if err != nil {
			t.Fatal(err)
		}
		text := strings.Repeat("abcdefghijklmnopqrstuvwxyz", 40)[:1000]
		res, err := d.Apply("alice", []EditOp{{Kind: EditInsert, Pos: 0, Text: text}})
		if err != nil {
			t.Fatal(err)
		}
		ids := res[0].IDs
		shuffled := make([]util.ID, len(ids))
		for i, j := range perm(util.NewRand(7), len(ids)) {
			shuffled[i] = ids[j]
		}
		if _, err := d.Apply("alice", []EditOp{{Kind: EditDelete, Chars: shuffled}}); err != nil {
			t.Fatal(err)
		}
		spilled := rowCount(t, e.tOpChunks)
		if spilled < 2 {
			t.Fatalf("the delete's payload took %d continuation rows, want several", spilled)
		}
		steps(t, d, "alice", []step{
			{false, text}, // undo the delete
			{true, ""},    // redo it from the undo row
			{false, text}, // undo the delete again
			{false, ""},   // undo the insert
			{true, text},  // redo the insert
		})
		if n := rowCount(t, e.tOpChunks); n < 4*spilled {
			t.Fatalf("%d continuation rows: the undo and redo rows of the delete did not spill", n)
		}
		for _, op := range d.History() {
			if op.Kind != "insert" && op.Chars != len(ids) {
				t.Fatalf("%s op %v counts %d IDs, want %d", op.Kind, op.ID, op.Chars, len(ids))
			}
		}
	})

	t.Run("archived delete", func(t *testing.T) {
		e := newEngine(t)
		d, _, full, hot := buildCompacted(t, e)
		steps(t, d, "alice", []step{{false, full}, {true, hot}, {false, full}})
	})

	t.Run("layout", func(t *testing.T) {
		e := newEngine(t)
		d, err := e.CreateDocument("alice", "layout")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertText("alice", 0, "text"); err != nil {
			t.Fatal(err)
		}
		span, err := d.ApplyLayout("alice", 0, 4, SpanBold, "true")
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range []step{{false, "text"}, {true, "text"}, {false, "text"}} {
			steps(t, d, "alice", []step{s})
			spans, err := d.Spans()
			if err != nil {
				t.Fatal(err)
			}
			if live := len(spans) == 1 && spans[0].ID == span; live != s.redo {
				t.Fatalf("step %d (redo %v): spans %+v", i, s.redo, spans)
			}
		}
	})
}
