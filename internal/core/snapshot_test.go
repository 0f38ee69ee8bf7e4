package core

import (
	"strings"
	"testing"

	"tendax/internal/util"
)

func TestDocumentSnapshotIsolation(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "hello world"); err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	if s.Text() != "hello world" || s.Len() != 11 {
		t.Fatalf("snapshot %q/%d", s.Text(), s.Len())
	}
	v := s.Tree().Version()

	// Writes after the snapshot must be invisible to it.
	if _, err := d.DeleteRange("alice", 0, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("bob", 0, "goodbye "); err != nil {
		t.Fatal(err)
	}
	if s.Text() != "hello world" || s.Tree().Version() != v {
		t.Fatalf("snapshot observed later writes: %q v%d", s.Text(), s.Tree().Version())
	}
	if err := s.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "goodbye world" {
		t.Fatalf("live text %q", d.Text())
	}
	s2 := d.Snapshot()
	if s2.Tree().Version() <= v {
		t.Fatalf("version did not advance: %d <= %d", s2.Tree().Version(), v)
	}
	meta, err := s2.RangeMeta(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if meta[0].Author != "bob" {
		t.Fatalf("meta author %q", meta[0].Author)
	}
}

func TestDocumentSnapshotVersionMonotonic(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "vmono")
	if err != nil {
		t.Fatal(err)
	}
	last := d.Snapshot().Tree().Version()
	for i := 0; i < 5; i++ {
		if _, err := d.AppendText("alice", "x"); err != nil {
			t.Fatal(err)
		}
		v := d.Snapshot().Tree().Version()
		if v <= last {
			t.Fatalf("version not monotonic: %d after %d", v, last)
		}
		last = v
	}
	if _, err := d.UndoGlobal("alice"); err != nil {
		t.Fatal(err)
	}
	if v := d.Snapshot().Tree().Version(); v <= last {
		t.Fatalf("undo did not publish a new snapshot: %d after %d", v, last)
	}
}

// TestRenderMarkupNotTornByLaterWrites is the regression test for the
// audited RenderMarkup/Outline paths: the seed implementation re-acquired
// the document lock for the span list, the text and every span range, so a
// writer landing between those reads produced a rendering that mixed
// document states. A DocSnapshot must keep rendering its own state no
// matter what commits afterwards.
func TestRenderMarkupNotTornByLaterWrites(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "render")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "title and body text"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyLayout("alice", 0, 5, SpanHeading, "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyLayout("alice", 10, 9, SpanBold, "true"); err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	want, err := s.RenderMarkup()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "<heading=1>title</heading>") || !strings.Contains(want, "<bold>body text</bold>") {
		t.Fatalf("markup = %q", want)
	}

	// Delete the bolded tail and half the heading; the old snapshot must
	// render byte-identically to before, while the live render shrinks.
	if _, err := d.DeleteRange("bob", 8, 11); err != nil {
		t.Fatal(err)
	}
	got, err := s.RenderMarkup()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("snapshot render torn by later write:\n before %q\n after  %q", want, got)
	}
	live, err := d.RenderMarkup()
	if err != nil {
		t.Fatal(err)
	}
	if live == want {
		t.Fatal("live render did not change after delete")
	}
	// The bold span's characters are all tombstoned: it must collapse, not
	// emit markers over text from another state.
	if strings.Contains(live, "<bold>") {
		t.Fatalf("live render kept a span over deleted text: %q", live)
	}

	// A span laid over text the snapshot has never seen must not produce a
	// phantom marker in the snapshot's render.
	if _, err := d.AppendText("bob", " new tail"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyLayout("bob", d.Len()-4, 4, SpanItalic, "true"); err != nil {
		t.Fatal(err)
	}
	got, err = s.RenderMarkup()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("snapshot render saw a later span:\n before %q\n after  %q", want, got)
	}
}

func TestOutlineResolvesAgainstOneSnapshot(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "outline")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "intro\nchapter one\nbody"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyLayout("alice", 0, 5, SpanHeading, "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyLayout("alice", 6, 11, SpanHeading, "2"); err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	want, err := s.Outline()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || want[0].Text != "intro" || want[1].Text != "chapter one" {
		t.Fatalf("outline = %+v", want)
	}
	// Delete everything; the snapshot's outline must not move.
	if _, err := d.DeleteRange("bob", 0, d.Len()); err != nil {
		t.Fatal(err)
	}
	got, err := s.Outline()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Text != want[0].Text || got[1].Text != want[1].Text {
		t.Fatalf("snapshot outline torn: %+v", got)
	}
	live, err := d.Outline()
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("live outline over empty text: %+v", live)
	}
}

// TestDiffVersionsNotTornByLaterWrites: the seed DiffVersions read the
// version text and the current text under two separate lock acquisitions.
// Against a snapshot, the "current" side is pinned: a commit landing
// between the two reconstructions cannot leak into the diff.
func TestDiffVersionsNotTornByLaterWrites(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "diff")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendText("alice", "line one\nline two"); err != nil {
		t.Fatal(err)
	}
	v, err := d.CreateVersion("alice", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendText("alice", "\nline three"); err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	want, err := s.DiffVersions(v.ID, util.NilID)
	if err != nil {
		t.Fatal(err)
	}
	// Later write: must not change the snapshot's diff.
	if _, err := d.AppendText("bob", "\nline four"); err != nil {
		t.Fatal(err)
	}
	got, err := s.DiffVersions(v.ID, util.NilID)
	if err != nil {
		t.Fatal(err)
	}
	if formatDiff(got) != formatDiff(want) {
		t.Fatalf("snapshot diff torn:\n%s\nvs\n%s", formatDiff(got), formatDiff(want))
	}
	adds := 0
	for _, h := range got {
		if h.Kind == DiffAdd {
			for _, l := range h.Lines {
				if l == "line three" {
					adds++
				}
				if l == "line four" {
					t.Fatal("diff leaked a write that landed after the snapshot")
				}
			}
		}
	}
	if adds != 1 {
		t.Fatalf("diff missing the snapshot-visible addition:\n%s", formatDiff(got))
	}
}

// TestVersionTextAgreesWithSnapshotAtOp is the document-level half of the
// time-travel property: the text reconstructed for a version must equal
// the snapshot captured when the version was created.
func TestVersionTextAgreesWithSnapshotAtOp(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "tt")
	if err != nil {
		t.Fatal(err)
	}
	rng := util.NewRand(7)
	type point struct {
		version util.ID
		text    string
	}
	var points []point
	for i := 0; i < 40; i++ {
		if d.Len() == 0 || rng.Intn(3) != 0 {
			pos := rng.Intn(d.Len() + 1)
			if _, err := d.InsertText("alice", pos, rng.Letters(3)); err != nil {
				t.Fatal(err)
			}
		} else {
			pos := rng.Intn(d.Len())
			if _, err := d.DeleteRange("alice", pos, 1); err != nil {
				t.Fatal(err)
			}
		}
		v, err := d.CreateVersion("alice", "auto")
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, point{version: v.ID, text: d.Snapshot().Text()})
	}
	for i, p := range points {
		got, err := d.VersionText(p.version)
		if err != nil {
			t.Fatal(err)
		}
		if got != p.text {
			t.Fatalf("op %d: VersionText = %q, snapshot captured %q", i, got, p.text)
		}
	}
}

// TestRangeMetaErrorsOnOutOfRange locks in the audited error contract: a
// read that cannot be satisfied from one consistent view returns ErrRange,
// never a partial result.
func TestRangeMetaErrorsOnOutOfRange(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "rm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendText("alice", "abc"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ pos, n int }{{0, 4}, {3, 1}, {-1, 2}, {1, -1}} {
		if _, err := d.RangeMeta(c.pos, c.n); err == nil {
			t.Fatalf("RangeMeta(%d,%d) succeeded on 3 chars", c.pos, c.n)
		}
	}
	if _, err := d.CharMetaAt(3); err == nil {
		t.Fatal("CharMetaAt past end succeeded")
	}
	meta, err := d.RangeMeta(1, 2)
	if err != nil || len(meta) != 2 || meta[0].Rune != 'b' {
		t.Fatalf("RangeMeta(1,2) = %+v, %v", meta, err)
	}
}

// TestBufferCopyIsOffLockAndStable: Document.Buffer materialises from the
// snapshot — it must be a deep copy unaffected by later edits.
func TestBufferCopyIsOffLockAndStable(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "bufcopy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendText("alice", "frozen"); err != nil {
		t.Fatal(err)
	}
	buf, err := d.buffer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendText("bob", " moved"); err != nil {
		t.Fatal(err)
	}
	if buf.Text() != "frozen" {
		t.Fatalf("buffer copy changed under us: %q", buf.Text())
	}
	if err := buf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAndInfoDoNotAllocate pins the read side every keystroke's
// index refresh takes: the snapshot and its sequence are the ones published
// with the state, and the metadata of an open document — its authors
// included — is derived without parsing the docs row again.
func TestSnapshotAndInfoDoNotAllocate(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("carol", "reads")
	if err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"carol", "alice", "bob"} {
		if _, err := d.InsertText(user, 0, user+" "); err != nil {
			t.Fatal(err)
		}
	}
	info, err := e.DocInfoByID(d.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(info.Authors, ","); got != "alice,bob,carol" {
		t.Fatalf("authors %q, want alice,bob,carol", got)
	}
	if s, seq := d.SnapshotSeq(); s != d.Snapshot() || seq != s.Seq() {
		t.Fatalf("SnapshotSeq and Snapshot disagree on a quiet document")
	}
	for name, read := range map[string]func(){
		"Snapshot":    func() { _ = d.Snapshot() },
		"SnapshotSeq": func() { _, _ = d.SnapshotSeq() },
		"DocInfoByID": func() { _, _ = e.DocInfoByID(d.ID()) },
	} {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, n)
		}
	}
	// A new author changes the row, and the authors are parsed anew.
	if _, err := d.InsertText("dave", 0, "dave "); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.Info().Authors, ","); got != "alice,bob,carol,dave" {
		t.Fatalf("authors after a new one edited: %q", got)
	}
}
