package texttree

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"tendax/internal/util"
)

// model is the buffer's independent oracle: the hot instances as a plain
// slice in document order, with their deleted flags, and the archive as plain
// slices keyed by anchor. Nothing it answers goes through either tree, so
// every comparison below checks the order tree and the mirror against
// something that shares no code with them.
type model struct {
	hot  []Char             // hot instances in document order; anchors unused
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

// rehydrate puts the archived id immediately after its run's anchor;
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

// sameInstance reports whether a and b agree on every field the model
// keeps: all but After and Key.
func sameInstance(a, b Char) bool {
	a.After, a.Key, b.After, b.Key = 0, 0, 0, 0
	return a == b
}

// check compares every read the buffer answers about its hot instances
// with the model.
func (m *model) check(t testing.TB, b *Buffer, label string) {
	t.Helper()
	var vis []util.ID
	var text []rune
	for _, c := range m.hot {
		if ch, ok := b.Char(c.ID); !ok || !sameInstance(ch, c) {
			t.Fatalf("%s: Char(%v) = %+v, %v; want %+v", label, c.ID, ch, ok, c)
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
	if b.Len() != len(vis) || b.TotalLen() != len(m.hot) {
		t.Fatalf("%s: Len/TotalLen = %d/%d, want %d/%d",
			label, b.Len(), b.TotalLen(), len(vis), len(m.hot))
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
	for _, c := range m.hot {
		if got, ok := s.Char(c.ID); !ok || !sameInstance(got, c) {
			t.Fatalf("%s: Char(%v) = %+v, %v; want %+v", label, c.ID, got, ok, c)
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
	// Mirror nodes the inserts added: leaves and inner nodes split, and
	// levels the root grew by.
	leafSplits, innerSplits, rootGrowths int
}

// keptSnap is a snapshot kept across later steps, with its text and the
// model as they stood when it was taken.
type keptSnap struct {
	s    *Snapshot
	text string
	m    model
}

// checkKept checks every kept snapshot's structure and text against the
// text saved beside it, and its by-identity reads against the model saved
// beside it, for every instance that model knew (hot, tombstoned and
// archived) and every instance created since. Char walks the mirror once
// per instance, so it is asked only when chars is set.
func (r *modelRun) checkKept(chars bool, label string) {
	r.t.Helper()
	now := r.m.ids()
	for j, k := range r.kept {
		if got := k.s.Text(); got != k.text {
			r.t.Fatalf("%s: snapshot %d drifted: %q, want %q", label, j, clip(got, 60), clip(k.text, 60))
		}
		if err := k.s.CheckInvariants(); err != nil {
			r.t.Fatalf("%s: snapshot %d: %v", label, j, err)
		}
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
// roughly half inserts — single keys, and runs of up to eight with dense or
// strided IDs, typed or pasted — a quarter deletes and a fifth undeletes,
// each of one instance or of a span, and every 256 steps a compaction pass
// and a run of more segments than a mirror leaf holds.
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
		r.insert(vis[int(x)%len(vis)], 1, y, false, false)
	case op < 100 && len(tombs) > 0:
		r.insert(tombs[int(x)%len(tombs)], 1, y, false, false)
	case op < 140:
		r.insert(int(x)%(len(r.m.hot)+1)-1, 1+int(y)%8, y, true, false)
	case op < 170 && len(vis) > 0:
		r.flip(vis[int(x)%len(vis):][:1], at, true)
	case op < 200 && len(vis) > 0:
		// A span of visible instances: within one run it is one record.
		k := int(x) % len(vis)
		r.flip(vis[k:][:min(1+int(y)%6, len(vis)-k)], at, true)
	case op == 254:
		r.insert(int(x)%(len(r.m.hot)+1)-1, leafCap+1+int(y)%leafCap, y, false, true)
	case op < 230 && len(tombs) > 0:
		r.flip(tombs[int(x)%len(tombs):][:1], at, false)
	case op < 255 && len(tombs) > 0:
		k := int(x) % len(tombs)
		r.flip(tombs[k:][:min(1+int(y)%6, len(tombs)-k)], at, false)
	case op == 255:
		r.compactAndRehydrate(x)
	default:
		r.insert(-1, 1, y, false, false) // at the front
	}
}

// flip deletes (del set) or undeletes the hot instances at the given
// model indexes, in order, in one call, and checks the position the buffer
// reports for each against the model's, flipped one at a time.
func (r *modelRun) flip(idx []int, at time.Time, del bool) {
	ids := make([]util.ID, len(idx))
	var want []int
	for k, i := range idx {
		c := &r.m.hot[i]
		ids[k] = c.ID
		if del {
			c.Deleted, c.DeletedBy, c.DeletedAt, c.Restored = true, "u", at, time.Time{}
		} else {
			c.Deleted, c.Restored = false, at
		}
		pos := 0
		for _, h := range r.m.hot[:i] {
			if !h.Deleted {
				pos++
			}
		}
		want = append(want, pos)
	}
	var got []int
	visit := func(k, pos int) {
		if k != len(got) {
			r.t.Fatalf("flip visited instance %d of %v after %d", k, ids, len(got))
		}
		got = append(got, pos)
	}
	var err error
	if del {
		err = r.b.Delete(ids, "u", at, visit)
	} else {
		err = r.b.Undelete(ids, at, visit)
	}
	if err != nil {
		r.t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		r.t.Fatalf("flip (delete %v) of %v visited positions %v, want %v", del, ids, got, want)
	}
}

// insert puts n new instances after hot[after] (-1 = front) in one
// InsertRun. With varied set, bits of y choose strided IDs (a progression
// by 2 to 4, the IDs between reserved and unused) and pasted text, whose
// sources ascend by 0 to 3 or by no step at all. With mixed set, two
// authors type the instances in turn, so each is a record and a mirror
// segment of its own.
func (r *modelRun) insert(after, n int, y byte, varied, mixed bool) {
	prev := util.NilID
	if after >= 0 {
		prev = r.m.hot[after].ID
	}
	step := util.ID(1)
	if varied && y&8 != 0 {
		step = util.ID(2 + int(y)%3)
	}
	first := r.gen.NextN(n * int(step))
	run := make([]Char, n)
	for i := range run {
		run[i] = Char{ID: first + util.ID(i)*step, Rune: rune('a' + (int(y)+i)%26), Author: "u", Created: time.Unix(r.now, 0)}
		if mixed {
			run[i].Author = authors[i%2]
		}
		if varied && y&16 != 0 {
			run[i].SourceDoc, run[i].SourceChar = 7, util.ID(1000+i*(int(y)%4))
			if y&32 != 0 {
				run[i].SourceChar = util.ID(1000 + i*i)
			}
		}
	}
	if _, err := r.b.InsertRun(prev, run); err != nil {
		r.t.Fatal(err)
	}
	r.m.hot = slices.Insert(r.m.hot, after+1, run...)
}

// compactAndRehydrate archives the tombstones deleted more than 40 steps
// ago, then brings up to three archived instances back.
func (r *modelRun) compactAndRehydrate(x byte) {
	horizon := time.Unix(r.now-40, 0)
	if got, want := compact(r.b, horizon), r.m.compact(horizon); got != want {
		r.t.Fatalf("Compact archived %d, model %d", got, want)
	}
	ids := r.m.archivedIDs()
	var pick []util.ID
	for k := 0; k < min(3, len(ids)); k++ {
		pick = append(pick, ids[(int(x)+k)%len(ids)])
	}
	plan, err := r.b.PlanRehydrate(pick, r.gen.Next)
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

// checkReload is the order oracle: the buffer's hot records, loaded
// afresh, must derive exactly the model's instance sequence from their
// anchors alone — every ID in order with its deleted flag — and the
// reloaded buffer, whose records Load coalesces anew, must hand out the
// same instances, After and Key included, as the buffer does by walk and
// by ID.
func (m *model) checkReload(t testing.TB, b *Buffer, label string) {
	t.Helper()
	all := b.AllChars()
	loaded, err := Load(all)
	if err != nil {
		t.Fatalf("%s: Load: %v", label, err)
	}
	got := loaded.AllChars()
	if len(got) != len(m.hot) {
		t.Fatalf("%s: reloaded %d instances, model %d", label, len(got), len(m.hot))
	}
	for i, c := range got {
		if c.ID != m.hot[i].ID || c.Deleted != m.hot[i].Deleted {
			t.Fatalf("%s: reloaded instance %d is %v (deleted %v), model %v (deleted %v)",
				label, i, c.ID, c.Deleted, m.hot[i].ID, m.hot[i].Deleted)
		}
		if c != all[i] {
			t.Fatalf("%s: reloaded instance %d is %+v, the buffer walks %+v", label, i, c, all[i])
		}
		if ch, _ := b.Char(c.ID); ch != c {
			t.Fatalf("%s: Char(%v) = %+v, the buffer walks %+v", label, c.ID, ch, c)
		}
	}
	// The same instances stored as runs, cut in ID order so that other
	// runs are anchored inside them, at a text cap that varies by state.
	runs := runsOf(all, 4+len(all)%13)
	fromRuns, err := LoadRuns(runs)
	if err != nil {
		t.Fatalf("%s: LoadRuns of %d runs: %v", label, len(runs), err)
	}
	if got := fromRuns.AllChars(); !slices.Equal(got, all) {
		t.Fatalf("%s: LoadRuns of %d runs gives %d instances, the buffer walks %d; first difference at %d",
			label, len(runs), len(got), len(all), firstDiff(got, all))
	}
	if err := fromRuns.CheckInvariants(); err != nil {
		t.Fatalf("%s: LoadRuns: %v", label, err)
	}
}

// runsOf cuts instances into runs the way a database stores them: in ID
// order, so a run holds instances that others were typed after, with at
// most maxBytes of text in each. The runs are returned last first, since
// LoadRuns takes them in any order.
func runsOf(all []Char, maxBytes int) []Run {
	byID := slices.Clone(all)
	slices.SortFunc(byID, func(a, b Char) int { return cmp.Compare(a.ID, b.ID) })
	var runs []Run
	CutRuns(len(byID), func(i int) *Char { return &byID[i] }, 0, maxBytes, func(lo, hi int) {
		f := &byID[lo]
		r := Run{First: f.ID, Step: 1, After: f.After, Key: f.Key, Author: f.Author, Created: f.Created,
			Deleted: f.Deleted, DeletedBy: f.DeletedBy, DeletedAt: f.DeletedAt, Restored: f.Restored,
			SourceDoc: f.SourceDoc, SourceFirst: f.SourceChar}
		if hi-lo > 1 {
			r.Step, r.SourceStep = byID[lo+1].ID-f.ID, byID[lo+1].SourceChar-f.SourceChar
		}
		var text []rune
		for _, c := range byID[lo:hi] {
			text = append(text, c.Rune)
		}
		r.Text = string(text)
		runs = append(runs, r)
	})
	slices.Reverse(runs)
	return runs
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []Char) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// runModel interprets data three bytes per step, checking the buffer
// against the model after every step, and that a buffer loaded from its
// records derives the model's order. At irregular steps, loadEvery apart
// on average and placed by the data, it takes and keeps a snapshot, checks
// that a buffer loaded from it answers the same, and that every snapshot
// kept so far still reads as it did; at the end each kept snapshot's Char
// is asked for every instance as well. Only these snapshots end the
// buffer's generation, so the steps between two of them — inserts,
// deletes, undeletes and compaction passes alike — update the mirror
// nodes that generation made in place. The buffer starts as a Load of
// loaded typed instances (none: an empty buffer).
func runModel(t testing.TB, data []byte, loadEvery, loaded int) *modelRun {
	t.Helper()
	r := &modelRun{t: t, m: model{hot: typedRows(loaded), arch: map[util.ID][]Char{}}}
	for range r.m.hot {
		r.gen.Next()
	}
	var err error
	if r.b, err = Load(r.m.hot); err != nil {
		t.Fatal(err)
	}
	keepAt := loadEvery - 1
	for i := 0; i+2 < len(data); i += 3 {
		step := i / 3
		h0, leaves0, inners0 := shape(r.b.root)
		r.step(data[i], data[i+1], data[i+2])
		if h, leaves, inners := shape(r.b.root); data[i] != 255 && leaves0 > 0 {
			r.leafSplits += leaves - leaves0
			r.innerSplits += inners - inners0 - (h - h0)
			r.rootGrowths += h - h0
		}
		label := fmt.Sprintf("step %d (op %d)", step, data[i])
		r.m.check(t, r.b, label)
		if err := r.b.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		r.m.checkReload(t, r.b, label)
		if got, want := r.b.Archive().Len(), len(r.m.archivedIDs()); got != want {
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
		if step != keepAt {
			continue
		}
		keepAt += 1 + int(data[i+1]^data[i+2])%(2*loadEvery-1)
		s := r.b.Snapshot()
		loaded, err := Load(s.AllChars())
		if err != nil {
			t.Fatalf("%s: Load: %v", label, err)
		}
		r.m.check(t, loaded, label+" reloaded")
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("%s: reloaded: %v", label, err)
		}
		r.kept = append(r.kept, keptSnap{s: s, text: s.Text(), m: r.m.frozen()})
		r.checkKept(false, label)
	}
	r.checkKept(true, "end")
	return r
}

// TestBufferMatchesModel drives random inserts (at the front, after a
// visible instance, after a tombstone, and as runs), deletes, undeletes
// and compaction passes with rehydration, and compares the buffer's whole
// read surface with the model after every step. Its three seeds run as
// parallel subtests.
func TestBufferMatchesModel(t *testing.T) {
	steps := 2000
	if testing.Short() {
		steps = 700
	}
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := runModel(t, randomSteps(seed, steps), 50, 0)
			if r.moved == 0 || r.b.TotalLen() == r.b.Len() {
				t.Fatalf("seed %d: degenerate run: %d rehydrated, %d of %d hot visible",
					seed, r.moved, r.b.Len(), r.b.TotalLen())
			}
		})
	}
}

// TestBufferMatchesModelDeepTree runs the model test on a buffer loaded
// with leafCap*fanout segments — instances typed by two authors in turn,
// each its own record: full leaves under one full root, so the first
// insert splits a leaf, splits the root and grows the tree, and later
// inserts split leaves under inner nodes that are not the root.
func TestBufferMatchesModelDeepTree(t *testing.T) {
	steps := 600
	if testing.Short() {
		steps = 250
	}
	r := runModel(t, randomSteps(4, steps), 50, leafCap*fanout)
	t.Logf("%d leaf splits, %d inner-node splits, %d root growths", r.leafSplits, r.innerSplits, r.rootGrowths)
	if r.leafSplits == 0 || r.innerSplits == 0 || r.rootGrowths == 0 {
		t.Fatal("the run did not split a leaf, split an inner node and grow the root")
	}
}

// typedRows returns n instances typed one after another by alice and bob
// in turn: IDs 1..n, each anchored at the one before and, as its
// neighbours have another author, a record and a mirror segment of its
// own.
func typedRows(n int) []Char {
	rows := make([]Char, n)
	for i := range rows {
		id := util.ID(i + 1)
		rows[i] = Char{ID: id, Rune: rune('a' + i%26), Author: authors[i%2], Created: time.Unix(1, 0), After: id - 1, Key: id}
	}
	return rows
}

var authors = [2]string{"alice", "bob"}

// shape returns the mirror's height in levels and its numbers of leaves
// and inner nodes.
func shape(n mnode) (height, leaves, inners int) {
	switch t := n.(type) {
	case *leaf:
		return 1, 1, 0
	case *inner:
		for _, kid := range t.kids[:t.n] {
			h, l, i := shape(kid)
			height, leaves, inners = h+1, leaves+l, inners+i
		}
		return height, leaves, inners + 1
	}
	return 0, 0, 0
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
	// Two compaction passes: the second archives around instances the
	// first re-anchored.
	twice := randomSteps(1, maxSteps)
	twice[3*50], twice[3*100] = 255, 255
	f.Add(twice)
	// Type 40 into one leaf and tombstone 20 of them, one segment each; the
	// snapshot kept after step 24 holds that leaf's 23 segments when a
	// run of leafCap+1 segments lands at the front and splits it into two
	// of 39; tombstone the first 39 (the first leaf after the split), type
	// past the horizon and compact, so a whole leaf empties.
	split := []byte{}
	for i := 0; i < 5; i++ {
		split = append(split, 130, 0, 7)
	}
	for i := 5; i < 25; i++ {
		split = append(split, 160, 0, 24)
	}
	split = append(split, 254, 0, 0)
	for i := 26; i < 65; i++ {
		split = append(split, 160, 0, 24)
	}
	for i := 65; i < 105; i++ {
		split = append(split, 70, byte(i), 1)
	}
	f.Add(append(split, 255, 0, 0, 130, 1, 3))
	// Runs with strided IDs (y=15: eight by 2), spans deleted inside them,
	// keys typed inside them, the deletes compacted past the horizon —
	// re-anchoring the instance after each span inside its run — and spans
	// of the tombstones left undeleted.
	strided := []byte{}
	for i := 0; i < 4; i++ {
		strided = append(strided, 130, 0, 15, 130, 0, 11)
	}
	strided = append(strided, 180, 3, 2, 180, 20, 4, 10, 5, 0, 10, 30, 0, 180, 40, 1)
	for i := 0; i < 42; i++ {
		strided = append(strided, 10, byte(7*i), 1)
	}
	f.Add(append(strided, 255, 0, 0, 240, 0, 5, 240, 3, 5, 130, 9, 15))
	// Pasted runs, their sources a progression (y=23: by 3) or not (y=63),
	// keys typed inside them, and spans deleted and undeleted across the
	// records the keys cut them into.
	pasted := []byte{}
	for i := 0; i < 6; i++ {
		pasted = append(pasted, 130, byte(5*i), 23, 130, byte(3*i), 63)
	}
	for i := 0; i < 10; i++ {
		pasted = append(pasted, 10, byte(11*i), 2, 180, byte(13*i), 5)
	}
	f.Add(append(pasted, 240, 0, 5, 240, 2, 5, 240, 1, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		runModel(t, data[:min(len(data), 3*maxSteps)], 25, 0)
	})
}

// TestBufferBytesPerChar gates the settled heap of a loaded buffer of
// 60 000 instances, measured as keystroke-bench's texttree.bytes_per_char
// is (heap after GC, before and after Load, the rows live on both sides):
//   - text typed in runs of 500 and of 8 runes, each run at its own
//     instant, its IDs one progression, one ID skipped between runs (the
//     insert's op ID);
//   - one typed run with every other instance a tombstone.
//
// With a 160 B record, a 48 B treap node and an ID-map entry per instance
// every case read ~255 B (a 64 B treap node made it 310 B); a record per
// run put the typed text at a 14 B mirror slot, the rune and its run's
// share of one record and one extent: 19.0 and 43.2 B. A mirror segment
// per run takes the slot away: 4.6 and 31.2 B. A tombstone between two
// visible instances is a record and a segment of one, whose deletion
// metadata it shares with its neighbours: 135.7 B (130.7 B with slots);
// its limit stays the slots' 143.8 B. Each other limit is its measured
// value plus 10 %.
func TestBufferBytesPerChar(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const n = 60000
	typed := func(runLen int) []Char {
		rows := make([]Char, n)
		id := util.ID(0)
		for i := range rows {
			prev := id
			if id++; i%runLen == 0 {
				id++ // the op ID of the insert before
			}
			rows[i] = Char{ID: id, Rune: rune('a' + i%26), Author: "alice",
				Created: time.Unix(int64(1+i/runLen), 0), After: prev, Key: id}
		}
		return rows
	}
	tombstones := typed(n)
	for i := 1; i < n; i += 2 {
		tombstones[i].Deleted, tombstones[i].DeletedBy, tombstones[i].DeletedAt = true, "bob", time.Unix(2, 0)
	}
	for _, c := range []struct {
		name  string
		rows  []Char
		limit float64
	}{
		{"500-rune runs", typed(500), 5.1},
		{"8-rune runs", typed(8), 34.3},
		{"alternating tombstones", tombstones, 143.8},
	} {
		before := settledHeap()
		b, err := Load(c.rows)
		if err != nil {
			t.Fatal(err)
		}
		perChar := (float64(settledHeap()) - float64(before)) / n
		runtime.KeepAlive(b)
		runtime.KeepAlive(c.rows)
		t.Logf("%s: %.1f B of settled heap per instance", c.name, perChar)
		if perChar > c.limit {
			t.Errorf("%s: %.1f B per instance, limit %.1f", c.name, perChar, c.limit)
		}
	}
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
