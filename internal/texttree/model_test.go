package texttree

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"tendax/internal/util"
)

// model is the buffer's independent oracle: the hot instances as a plain
// slice in chain order, with their deleted flags, and the archive as plain
// slices keyed by anchor. Nothing it answers goes through either tree, so
// every comparison below checks the order tree and the mirror against
// something that shares no code with them.
type model struct {
	hot  []Char             // hot instances in chain order; links unused
	arch map[util.ID][]Char // anchor -> archived instances in merged order
}

func (m *model) pos(id util.ID) int {
	return slices.IndexFunc(m.hot, func(c Char) bool { return c.ID == id })
}

// compact moves every tombstone deleted before horizon into the run of the
// nearest surviving hot instance before it, followed by the run it
// anchored itself, and returns how many moved.
func (m *model) compact(horizon time.Time) int {
	var keep []Char
	anchor, n := util.NilID, 0
	for _, c := range m.hot {
		if !c.Deleted || !c.DeletedAt.Before(horizon) {
			keep = append(keep, c)
			anchor = c.ID
			continue
		}
		run := append(slices.Clip(m.arch[anchor]), c)
		m.arch[anchor] = append(run, m.arch[c.ID]...)
		delete(m.arch, c.ID)
		n++
	}
	m.hot = keep
	return n
}

// rehydrate chains the archived id immediately after its run's anchor;
// the rest of the run after it is re-anchored at id.
func (m *model) rehydrate(id util.ID) bool {
	for anchor, run := range m.arch {
		i := slices.IndexFunc(run, func(c Char) bool { return c.ID == id })
		if i < 0 {
			continue
		}
		if i == 0 {
			delete(m.arch, anchor)
		} else {
			m.arch[anchor] = slices.Clip(run[:i])
		}
		if after := run[i+1:]; len(after) > 0 {
			m.arch[id] = slices.Clip(after)
		}
		at := 0
		if !anchor.IsNil() {
			at = m.pos(anchor) + 1
		}
		m.hot = slices.Insert(m.hot, at, run[i])
		return true
	}
	return false
}

// frozen returns a copy of the model that later steps cannot change (they
// edit hot records in place; archive runs are only ever replaced).
func (m *model) frozen() model {
	return model{hot: slices.Clone(m.hot), arch: maps.Clone(m.arch)}
}

// ids returns every instance the model knows, hot and archived.
func (m *model) ids() []util.ID {
	ids := m.archivedIDs()
	for _, c := range m.hot {
		ids = append(ids, c.ID)
	}
	return ids
}

func (m *model) archivedIDs() []util.ID {
	var ids []util.ID
	for _, run := range m.arch {
		for _, c := range run {
			ids = append(ids, c.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// check compares every read the buffer answers about its hot instances
// with the model.
func (m *model) check(t testing.TB, b *Buffer, label string) {
	t.Helper()
	var vis []util.ID
	var text []rune
	for i, c := range m.hot {
		prev, next := util.NilID, util.NilID
		if i > 0 {
			prev = m.hot[i-1].ID
		}
		if i+1 < len(m.hot) {
			next = m.hot[i+1].ID
		}
		ch, ok := b.Char(c.ID)
		if !ok || ch.Rune != c.Rune || ch.Deleted != c.Deleted || ch.Prev != prev || ch.Next != next {
			t.Fatalf("%s: Char(%v) = %+v, %v; want rune %q deleted %v links %v<->%v",
				label, c.ID, ch, ok, c.Rune, c.Deleted, prev, next)
		}
		if r, ok := b.RankOf(c.ID); !ok || r != len(vis) {
			t.Fatalf("%s: RankOf(%v) = %d, %v; want %d", label, c.ID, r, ok, len(vis))
		}
		if p, ok := b.PosOf(c.ID); ok != !c.Deleted || (ok && p != len(vis)) {
			t.Fatalf("%s: PosOf(%v) = %d, %v; want %d, %v", label, c.ID, p, ok, len(vis), !c.Deleted)
		}
		if !c.Deleted {
			vis = append(vis, c.ID)
			text = append(text, c.Rune)
		}
	}
	head := util.NilID
	if len(m.hot) > 0 {
		head = m.hot[0].ID
	}
	if b.Len() != len(vis) || b.TotalLen() != len(m.hot) || b.Head() != head {
		t.Fatalf("%s: Len/TotalLen/Head = %d/%d/%v, want %d/%d/%v",
			label, b.Len(), b.TotalLen(), b.Head(), len(vis), len(m.hot), head)
	}
	for p, id := range vis {
		if got, ok := b.IDAt(p); !ok || got != id {
			t.Fatalf("%s: IDAt(%d) = %v, %v; want %v", label, p, got, ok, id)
		}
	}
	for _, p := range []int{-1, len(vis)} {
		if id, ok := b.IDAt(p); ok {
			t.Fatalf("%s: IDAt(%d) = %v out of range", label, p, id)
		}
	}
	l := len(vis)
	for _, w := range [][2]int{{0, l}, {-2, 5}, {l / 2, 7}, {l - 3, 9}, {l, 1}} {
		lo, hi := max(w[0], 0), min(w[0]+w[1], l)
		lo = min(lo, hi)
		if got := b.RangeIDs(w[0], w[1]); !slices.Equal(got, vis[lo:hi]) {
			t.Fatalf("%s: RangeIDs(%d, %d) = %v, want %v", label, w[0], w[1], got, vis[lo:hi])
		}
		if got := b.Slice(w[0], w[1]); got != string(text[lo:hi]) {
			t.Fatalf("%s: Slice(%d, %d) = %q, want %q", label, w[0], w[1], got, string(text[lo:hi]))
		}
	}
	if got := b.Text(); got != string(text) {
		t.Fatalf("%s: Text = %q, want %q", label, clip(got, 60), clip(string(text), 60))
	}
}

// checkSnapshot compares a kept snapshot's by-identity reads with m, the
// model as it stood when the snapshot was taken: Resolve for every
// instance m knows plus unseen (instances created after the snapshot) in
// one call, and, if chars is set, Char for each of them one at a time.
func (m *model) checkSnapshot(t testing.TB, s *Snapshot, unseen []util.ID, chars bool, label string) {
	t.Helper()
	want := make(map[util.ID]Anchor)
	vis := 0
	for _, c := range m.hot {
		want[c.ID] = Anchor{Rank: vis, Visible: !c.Deleted, Known: true}
		if !c.Deleted {
			vis++
		}
	}
	for anchor, run := range m.arch {
		// An archived instance's text resumes after every visible
		// character up to and including its run's anchor.
		r := 0
		if !anchor.IsNil() {
			r = want[anchor].Rank
			if want[anchor].Visible {
				r++
			}
		}
		for _, c := range run {
			want[c.ID] = Anchor{Rank: r, Known: true}
		}
	}
	for _, id := range unseen {
		want[id] = Anchor{}
	}
	ids := make([]util.ID, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for i, got := range s.Resolve(ids) {
		if got != want[ids[i]] {
			t.Fatalf("%s: Resolve(%v) = %+v, want %+v", label, ids[i], got, want[ids[i]])
		}
	}
	if !chars {
		return
	}
	for i, c := range m.hot {
		prev, next := util.NilID, util.NilID
		if i > 0 {
			prev = m.hot[i-1].ID
		}
		if i+1 < len(m.hot) {
			next = m.hot[i+1].ID
		}
		got, ok := s.Char(c.ID)
		if !ok || got.Rune != c.Rune || got.Deleted != c.Deleted || got.Prev != prev || got.Next != next {
			t.Fatalf("%s: Char(%v) = %+v, %v; want rune %q deleted %v links %v<->%v",
				label, c.ID, got, ok, c.Rune, c.Deleted, prev, next)
		}
	}
	for _, run := range m.arch {
		for _, c := range run {
			if got, ok := s.Char(c.ID); !ok || got.Rune != c.Rune || !got.Deleted {
				t.Fatalf("%s: archived Char(%v) = %+v, %v; want rune %q", label, c.ID, got, ok, c.Rune)
			}
		}
	}
	for _, id := range unseen {
		if got, ok := s.Char(id); ok {
			t.Fatalf("%s: Char(%v) = %+v for an instance the snapshot never saw", label, id, got)
		}
	}
}

// modelRun drives a Buffer and the model through the same steps.
type modelRun struct {
	t     testing.TB
	b     *Buffer
	m     model
	gen   util.IDGen
	now   int64
	kept  []keptSnap
	moved int // instances rehydrated, to show compaction and rehydration ran
}

// keptSnap is a snapshot kept across later steps, with its text and the
// model as they stood when it was taken.
type keptSnap struct {
	s    *Snapshot
	text string
	m    model
}

// checkKept compares every kept snapshot's by-identity reads with the
// model saved beside it, for every instance that model knew (hot, tombstoned
// and archived) and every instance created since. Char walks the mirror
// once per instance, so it is asked only when chars is set.
func (r *modelRun) checkKept(chars bool, label string) {
	now := r.m.ids()
	for j, k := range r.kept {
		known := make(map[util.ID]bool)
		for _, id := range k.m.ids() {
			known[id] = true
		}
		var unseen []util.ID
		for _, id := range now {
			if !known[id] {
				unseen = append(unseen, id)
			}
		}
		k.m.checkSnapshot(r.t, k.s, unseen, chars, fmt.Sprintf("%s: snapshot %d", label, j))
	}
}

// step applies the operation three bytes encode. Uniform random bytes give
// roughly half inserts, a quarter deletes, a fifth undeletes and a
// compaction pass every 256 steps.
func (r *modelRun) step(op, x, y byte) {
	r.now++
	at := time.Unix(r.now, 0)
	var vis, tombs []int
	for i, c := range r.m.hot {
		if c.Deleted {
			tombs = append(tombs, i)
		} else {
			vis = append(vis, i)
		}
	}
	switch {
	case op < 60 && len(vis) > 0:
		r.insert(vis[int(x)%len(vis)], 1, y)
	case op < 100 && len(tombs) > 0:
		r.insert(tombs[int(x)%len(tombs)], 1, y)
	case op < 140:
		r.insert(int(x)%(len(r.m.hot)+1)-1, 1+int(y)%8, y)
	case op < 200 && len(vis) > 0:
		c := &r.m.hot[vis[int(x)%len(vis)]]
		if err := r.b.Delete(c.ID, "u", at); err != nil {
			r.t.Fatal(err)
		}
		c.Deleted, c.DeletedBy, c.DeletedAt, c.Restored = true, "u", at, time.Time{}
	case op < 255 && len(tombs) > 0:
		c := &r.m.hot[tombs[int(x)%len(tombs)]]
		if err := r.b.Undelete(c.ID, at); err != nil {
			r.t.Fatal(err)
		}
		c.Deleted, c.Restored = false, at
	case op == 255:
		r.compactAndRehydrate(x)
	default:
		r.insert(-1, 1, y) // at the front
	}
}

// insert chains n new instances after hot[after] (-1 = front), one by
// InsertAfter and several by InsertRun.
func (r *modelRun) insert(after, n int, y byte) {
	prev := util.NilID
	if after >= 0 {
		prev = r.m.hot[after].ID
	}
	run := make([]Char, n)
	for i := range run {
		run[i] = Char{ID: r.gen.Next(), Rune: rune('a' + (int(y)+i)%26), Author: "u", Created: time.Unix(r.now, 0)}
	}
	var err error
	if n == 1 {
		_, err = r.b.InsertAfter(prev, run[0])
	} else {
		_, err = r.b.InsertRun(prev, run)
	}
	if err != nil {
		r.t.Fatal(err)
	}
	r.m.hot = slices.Insert(r.m.hot, after+1, run...)
}

// compactAndRehydrate archives the tombstones deleted more than 40 steps
// ago, then brings up to three archived instances back.
func (r *modelRun) compactAndRehydrate(x byte) {
	horizon := time.Unix(r.now-40, 0)
	if got, want := r.b.Compact(horizon), r.m.compact(horizon); got != want {
		r.t.Fatalf("Compact archived %d, model %d", got, want)
	}
	ids := r.m.archivedIDs()
	var pick []util.ID
	for k := 0; k < min(3, len(ids)); k++ {
		pick = append(pick, ids[(int(x)+k)%len(ids)])
	}
	plan, err := r.b.PlanRehydrate(pick)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.b.ApplyRehydrate(plan); err != nil {
		r.t.Fatal(err)
	}
	for _, id := range pick {
		if !r.m.rehydrate(id) {
			r.t.Fatalf("model lost archived %v", id)
		}
	}
	r.moved += len(pick)
}

// runModel interprets data three bytes per step, checking the buffer
// against the model after every step. Every loadEvery steps it also checks
// that a buffer loaded from the current snapshot answers the same, and
// that every snapshot kept so far still reads as it did, by position and
// by identity; at the end each kept snapshot's Char is asked for every
// instance as well.
func runModel(t testing.TB, data []byte, loadEvery int) *modelRun {
	t.Helper()
	r := &modelRun{t: t, b: NewBuffer(), m: model{arch: map[util.ID][]Char{}}}
	for i := 0; i+2 < len(data); i += 3 {
		step := i / 3
		r.step(data[i], data[i+1], data[i+2])
		label := fmt.Sprintf("step %d (op %d)", step, data[i])
		r.m.check(t, r.b, label)
		if err := r.b.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got, want := r.b.ArchivedLen(), len(r.m.archivedIDs()); got != want {
			t.Fatalf("%s: ArchivedLen = %d, model %d", label, got, want)
		}
		for anchor, run := range r.m.arch {
			for _, c := range run {
				if got, ok := r.b.Archive().AnchorOf(c.ID); !ok || got != anchor {
					t.Fatalf("%s: archived %v anchored at %v, %v; model %v", label, c.ID, got, ok, anchor)
				}
				if _, ok := r.b.Char(c.ID); ok {
					t.Fatalf("%s: archived %v is hot", label, c.ID)
				}
			}
		}
		if step%loadEvery != loadEvery-1 {
			continue
		}
		s := r.b.Snapshot()
		loaded, err := Load(s.AllChars())
		if err != nil {
			t.Fatalf("%s: Load: %v", label, err)
		}
		r.m.check(t, loaded, label+" reloaded")
		r.kept = append(r.kept, keptSnap{s: s, text: s.Text(), m: r.m.frozen()})
		for j, k := range r.kept {
			if got := k.s.Text(); got != k.text {
				t.Fatalf("%s: snapshot %d drifted: %q, want %q", label, j, clip(got, 60), clip(k.text, 60))
			}
			if err := k.s.CheckInvariants(); err != nil {
				t.Fatalf("%s: snapshot %d: %v", label, j, err)
			}
		}
		r.checkKept(false, label)
	}
	r.checkKept(true, "end")
	return r
}

// TestBufferMatchesModel drives random inserts (at the front, after a
// visible instance, after a tombstone, and as runs), deletes, undeletes
// and compaction passes with rehydration, and compares the buffer's whole
// read surface with the model after every step.
func TestBufferMatchesModel(t *testing.T) {
	steps := 2000
	if testing.Short() {
		steps = 700
	}
	for _, seed := range []uint64{1, 2, 3} {
		r := runModel(t, randomSteps(seed, steps), 50)
		if r.moved == 0 || r.b.TotalLen() == r.b.Len() {
			t.Fatalf("seed %d: degenerate run: %d rehydrated, %d of %d hot visible",
				seed, r.moved, r.b.Len(), r.b.TotalLen())
		}
	}
}

func randomSteps(seed uint64, steps int) []byte {
	rng := util.NewRand(seed)
	data := make([]byte, 3*steps)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return data
}

// FuzzBufferOps runs the model test's step interpreter on fuzz bytes.
func FuzzBufferOps(f *testing.F) {
	const maxSteps = 120 // keeps one input to milliseconds
	f.Add(randomSteps(1, maxSteps))
	f.Add(randomSteps(2, maxSteps))
	// Type, delete, idle past the horizon, compact and rehydrate.
	script := []byte{130, 0, 7, 130, 3, 9, 150, 2, 0, 160, 5, 0}
	for i := 0; i < 45; i++ {
		script = append(script, 70, byte(i), 1)
	}
	f.Add(append(script, 255, 0, 0, 210, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		runModel(t, data[:min(len(data), 3*maxSteps)], 25)
	})
}

// TestBufferBytesPerChar gates the settled heap of a loaded buffer:
// 60 000 instances, every other one a tombstone, measured as
// keystroke-bench's texttree.bytes_per_char is (heap after GC, before and
// after Load, the rows live on both sides).
func TestBufferBytesPerChar(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const n, limit = 60000, 320
	created := time.Unix(1, 0)
	rows := make([]Char, n)
	for i := range rows {
		id := util.ID(i + 1)
		rows[i] = Char{ID: id, Rune: rune('a' + i%26), Author: "alice", Created: created}
		if i > 0 {
			rows[i].Prev = id - 1
		}
		if i < n-1 {
			rows[i].Next = id + 1
		}
		if i%2 == 1 {
			rows[i].Deleted, rows[i].DeletedBy, rows[i].DeletedAt = true, "bob", created.Add(time.Second)
		}
	}
	before := settledHeap()
	b, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	perChar := (float64(settledHeap()) - float64(before)) / n
	runtime.KeepAlive(b)
	runtime.KeepAlive(rows)
	t.Logf("%.1f B of settled heap per instance", perChar)
	if perChar > limit {
		t.Fatalf("%.1f B per instance, limit %d", perChar, limit)
	}
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
