package texttree

import (
	"strings"
	"testing"
	"time"

	"tendax/internal/util"
)

// archiveScript drives a reproducible random editing history and returns
// the buffer plus the reference text at every recorded instant. The
// returned times are strictly increasing, so TextAt can be checked at any
// of them before and after compaction.
type archiveScript struct {
	b       *Buffer
	history []struct {
		at   time.Time
		text string
	}
	now int64
	gen util.IDGen
}

func runArchiveScript(t *testing.T, seed uint64, steps int, delBias float64) *archiveScript {
	t.Helper()
	rng := util.NewRand(seed)
	s := &archiveScript{b: NewBuffer(), now: 100}
	ref := []rune{}
	for step := 0; step < steps; step++ {
		s.now += int64(1 + rng.Intn(3))
		at := time.Unix(s.now, 0)
		switch {
		case len(ref) == 0 || rng.Float64() >= delBias:
			pos := 0
			if len(ref) > 0 {
				pos = rng.Intn(len(ref) + 1)
			}
			r := rune('a' + rng.Intn(26))
			prev, err := s.b.PredecessorForInsert(pos)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := insertAfter(s.b, prev, Char{ID: s.gen.Next(), Rune: r, Author: "u", Created: at}); err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:pos], append([]rune{r}, ref[pos:]...)...)
		case rng.Float64() < 0.12 && s.b.TotalLen() > s.b.Len():
			// Occasionally undelete a warm tombstone to exercise the
			// deletion-interval semantics under compaction.
			var tomb util.ID
			s.b.Walk(func(ch *Char, vis bool) bool {
				if !vis {
					tomb = ch.ID
					return false
				}
				return true
			})
			if tomb.IsNil() {
				continue
			}
			ch, _ := s.b.Char(tomb)
			if err := s.b.Undelete([]util.ID{tomb}, at, nil); err != nil {
				t.Fatal(err)
			}
			pos, ok := s.b.PosOf(tomb)
			if !ok {
				t.Fatalf("undeleted %v not visible", tomb)
			}
			ref = append(ref[:pos], append([]rune{ch.Rune}, ref[pos:]...)...)
		default:
			// Only one deletion interval per character is recorded
			// (re-deleting a restored char erases the earlier interval),
			// so the reference-history property holds only for chars
			// deleted at most once after a restore: skip restored ones.
			pos := -1
			for try := 0; try < 8; try++ {
				p := rng.Intn(len(ref))
				id, ok := s.b.IDAt(p)
				if !ok {
					t.Fatalf("step %d: IDAt(%d)", step, p)
				}
				ch, _ := s.b.Char(id)
				if ch.Restored.IsZero() {
					pos = p
					break
				}
			}
			if pos < 0 {
				continue
			}
			id, _ := s.b.IDAt(pos)
			if err := s.b.Delete([]util.ID{id}, "u", at, nil); err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:pos], ref[pos+1:]...)
		}
		if step%17 == 0 {
			s.history = append(s.history, struct {
				at   time.Time
				text string
			}{at, string(ref)})
		}
	}
	if s.b.Text() != string(ref) {
		t.Fatalf("script diverged: %q vs %q", firstN(s.b.Text(), 40), firstN(string(ref), 40))
	}
	return s
}

func (s *archiveScript) checkHistory(t *testing.T, label string) {
	t.Helper()
	for i, h := range s.history {
		if got := s.b.TextAt(h.at); got != h.text {
			t.Fatalf("%s: TextAt history point %d (t=%v):\n got %q\nwant %q",
				label, i, h.at, firstN(got, 60), firstN(h.text, 60))
		}
	}
}

// TestCompactionPreservesTextAndHistory is the core property: repeatedly
// compacting at advancing horizons changes neither the visible text nor
// the reconstruction of any historical instant, including instants before
// the horizon (served by the merge-on-read path).
func TestCompactionPreservesTextAndHistory(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		s := runArchiveScript(t, seed, 900, 0.5)
		want := s.b.Text()
		wantTotal := s.b.TotalLen()

		// Compact in several passes at advancing horizons, interleaved
		// with full history checks.
		cuts := []int64{s.now / 4, s.now / 2, s.now + 1}
		archived := 0
		for _, cut := range cuts {
			archived += compact(s.b, time.Unix(cut, 0))
			if err := s.b.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after compact at %d: %v", seed, cut, err)
			}
			if got := s.b.Text(); got != want {
				t.Fatalf("seed %d: visible text changed by compaction", seed)
			}
			s.checkHistory(t, "after compact")
		}
		if archived == 0 {
			t.Fatalf("seed %d: script produced no cold tombstones", seed)
		}
		if s.b.TotalLen()+s.b.Archive().Len() != wantTotal {
			t.Fatalf("seed %d: instances lost: hot %d + archived %d != %d",
				seed, s.b.TotalLen(), s.b.Archive().Len(), wantTotal)
		}
		// The final pass archived every tombstone: hot = visible.
		if s.b.TotalLen() != s.b.Len() {
			t.Fatalf("seed %d: %d warm tombstones survived a full-horizon pass",
				seed, s.b.TotalLen()-s.b.Len())
		}
	}
}

// TestCompactionAgainstUncompactedTwin drives the same history into two
// buffers, compacts one, and compares the full read surface byte for byte.
func TestCompactionAgainstUncompactedTwin(t *testing.T) {
	a := runArchiveScript(t, 99, 700, 0.55)
	b := runArchiveScript(t, 99, 700, 0.55)
	if a.b.Text() != b.b.Text() {
		t.Fatal("twin scripts diverged")
	}
	compact(a.b, time.Unix(a.now/2, 0))
	if a.b.Archive().Len() == 0 {
		t.Fatal("nothing archived")
	}
	if a.b.Text() != b.b.Text() {
		t.Fatal("Text diverged after compaction")
	}
	for step := int64(90); step <= a.now+10; step += 7 {
		at := time.Unix(step, 0)
		if got, want := a.b.TextAt(at), b.b.TextAt(at); got != want {
			t.Fatalf("TextAt(%v) diverged:\n compacted   %q\n uncompacted %q",
				at, firstN(got, 60), firstN(want, 60))
		}
	}
	// Authors sees only visible text and must agree.
	ga, gb := visibleAuthors(a.b), visibleAuthors(b.b)
	if strings.Join(ga, ",") != strings.Join(gb, ",") {
		t.Fatalf("Authors diverged: %v vs %v", ga, gb)
	}
}

// TestSnapshotsSurviveCompaction pins the MVCC contract: snapshots taken
// before a compaction pass keep the full pre-pass hot structures and
// answer every read, while new snapshots see the shrunken form.
func TestSnapshotsSurviveCompaction(t *testing.T) {
	s := runArchiveScript(t, 5, 600, 0.6)
	old := s.b.Snapshot()
	oldText := old.Text()
	oldTotal := old.TotalLen()
	oldAt := old.TextAt(time.Unix(s.now/2, 0))

	n := compact(s.b, time.Unix(s.now+1, 0))
	if n == 0 {
		t.Fatal("nothing archived")
	}
	if err := old.CheckInvariants(); err != nil {
		t.Fatalf("old snapshot corrupted by compaction: %v", err)
	}
	if old.TotalLen() != oldTotal {
		t.Fatalf("old snapshot lost instances: %d vs %d", old.TotalLen(), oldTotal)
	}
	if old.Text() != oldText {
		t.Fatal("old snapshot text changed")
	}
	if old.TextAt(time.Unix(s.now/2, 0)) != oldAt {
		t.Fatal("old snapshot time travel changed")
	}

	fresh := s.b.Snapshot()
	if fresh.TotalLen() != s.b.TotalLen() {
		t.Fatal("fresh snapshot does not reflect compaction")
	}
	if fresh.Text() != oldText {
		t.Fatal("fresh snapshot text diverged")
	}
	if got := fresh.TextAt(time.Unix(s.now/2, 0)); got != oldAt {
		t.Fatalf("fresh snapshot time travel diverged:\n got %q\nwant %q",
			firstN(got, 60), firstN(oldAt, 60))
	}
	if fresh.Archive().Len() != n {
		t.Fatalf("fresh snapshot archive %d, want %d", fresh.Archive().Len(), n)
	}
}

// TestRehydrateRoundTrip archives tombstones, rehydrates a few, and
// verifies order, history and invariants; re-compacting afterwards must
// re-absorb them with the merged order intact.
func TestRehydrateRoundTrip(t *testing.T) {
	s := runArchiveScript(t, 13, 500, 0.6)
	compact(s.b, time.Unix(s.now+1, 0))
	arch := s.b.Archive()
	if arch.Len() < 3 {
		t.Fatalf("too few archived (%d) for the test", arch.Len())
	}
	// Pick three archived instances across different runs.
	var ids []util.ID
	for _, anchor := range arch.Anchors() {
		run := arch.Run(anchor)
		ids = append(ids, run[len(run)/2].ID)
		if len(ids) == 3 {
			break
		}
	}
	plan, err := s.b.PlanRehydrate(ids, s.gen.Next)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("nil rehydrate plan for archived ids")
	}
	before := s.b.Text()
	total := s.b.TotalLen() + s.b.Archive().Len()
	if err := s.b.ApplyRehydrate(plan); err != nil {
		t.Fatal(err)
	}
	if err := s.b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.b.Text() != before {
		t.Fatal("rehydration changed visible text")
	}
	if s.b.TotalLen()+s.b.Archive().Len() != total {
		t.Fatal("rehydration lost instances")
	}
	for _, id := range ids {
		ch, ok := s.b.Char(id)
		if !ok {
			t.Fatalf("rehydrated %v not hot", id)
		}
		if !ch.Deleted {
			t.Fatalf("rehydrated %v lost its tombstone state", id)
		}
	}
	s.checkHistory(t, "after rehydrate")

	// Undelete one, then re-compact: the undeleted char must stay hot.
	s.now += 5
	if err := s.b.Undelete([]util.ID{ids[0]}, time.Unix(s.now, 0), nil); err != nil {
		t.Fatal(err)
	}
	compact(s.b, time.Unix(s.now+1, 0))
	if err := s.b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.b.Char(ids[0]); !ok {
		t.Fatal("undeleted char was re-archived")
	}
	s.checkHistory(t, "after re-compact")
}

// TestUndeleteTimeTravelInterval is the regression test for the zeroed
// DeletedAt bug: undeleting a character must preserve its deletion
// interval so time travel inside the interval still sees the gap — before
// and after the tombstone's neighbours cross the compaction horizon.
func TestUndeleteTimeTravelInterval(t *testing.T) {
	b := NewBuffer()
	var gen util.IDGen
	ids := make([]util.ID, 0, 5)
	for i, r := range "abcde" {
		prev := util.NilID
		if i > 0 {
			prev = ids[i-1]
		}
		id := gen.Next()
		if _, err := insertAfter(b, prev, Char{ID: id, Rune: r, Author: "u", Created: time.Unix(int64(10+i), 0)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Delete 'c' at t=20, undelete at t=30.
	if err := b.Delete([]util.ID{ids[2]}, "u", time.Unix(20, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Undelete([]util.ID{ids[2]}, time.Unix(30, 0), nil); err != nil {
		t.Fatal(err)
	}
	ch, _ := b.Char(ids[2])
	if ch.DeletedAt.IsZero() || ch.Restored.IsZero() {
		t.Fatalf("undelete zeroed the deletion interval: %+v", ch)
	}
	check := func(label string) {
		t.Helper()
		for _, tc := range []struct {
			at   int64
			want string
		}{
			{16, "abcde"}, // before the deletion
			{25, "abde"},  // inside the interval: the gap must show
			{35, "abcde"}, // after the undelete
		} {
			if got := b.TextAt(time.Unix(tc.at, 0)); got != tc.want {
				t.Fatalf("%s: TextAt(%d) = %q, want %q", label, tc.at, got, tc.want)
			}
		}
	}
	check("hot")

	// Delete 'b' at t=40 and compact past it: 'b' is archived while the
	// undeleted 'c' stays hot. The interval must survive on both sides of
	// the horizon.
	if err := b.Delete([]util.ID{ids[1]}, "u", time.Unix(40, 0), nil); err != nil {
		t.Fatal(err)
	}
	if n := compact(b, time.Unix(50, 0)); n != 1 {
		t.Fatalf("archived %d, want 1", n)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at   int64
		want string
	}{
		{16, "abcde"},
		{25, "abde"}, // merges the archived 'b' and hides the undeleted 'c'
		{35, "abcde"},
		{45, "acde"}, // after 'b' was deleted
	} {
		if got := b.TextAt(time.Unix(tc.at, 0)); got != tc.want {
			t.Fatalf("post-compaction: TextAt(%d) = %q, want %q", tc.at, got, tc.want)
		}
	}
}

// TestArchiveCodecRoundTrip pins the archive row encoding.
func TestArchiveCodecRoundTrip(t *testing.T) {
	chars := []*Char{
		{ID: 7, Rune: 'x', Author: "alice", Created: time.Unix(5, 3).UTC(),
			Deleted: true, DeletedBy: "bob", DeletedAt: time.Unix(9, 1).UTC(),
			SourceDoc: 3, SourceChar: 4},
		{ID: 8, Rune: '界', Author: "", Created: time.Unix(6, 0).UTC(),
			Deleted: true, DeletedAt: time.Unix(7, 0).UTC(),
			Restored: time.Unix(8, 0).UTC()},
	}
	var buf []byte
	for _, ch := range chars {
		buf = EncodeArchived(buf, ch)
	}
	for _, want := range chars {
		var got Char
		var err error
		got, buf, err = DecodeArchived(buf)
		if err != nil {
			t.Fatal(err)
		}
		w := *want
		if got != w {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, w)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
	if _, _, err := DecodeArchived([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated record decoded")
	}
}

// TestOrderRemove pins the hot-index delete primitive.
func TestOrderRemove(t *testing.T) {
	b, _ := bufWithText(t, "abcdefghij")
	// Remove via compaction of single deleted chars at scattered ranks.
	for _, pos := range []int{7, 3, 0} {
		id, _ := b.IDAt(pos)
		if err := b.Delete([]util.ID{id}, "u", time.Unix(50, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := compact(b, time.Unix(60, 0)); n != 3 {
		t.Fatalf("archived %d, want 3", n)
	}
	if b.TotalLen() != 7 || b.Len() != 7 {
		t.Fatalf("hot %d/%d, want 7/7", b.TotalLen(), b.Len())
	}
	if b.Text() != "bcefgij" {
		t.Fatalf("Text = %q", b.Text())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
