package core

import (
	"strings"
	"testing"
	"testing/quick"

	"tendax/internal/util"
)

func TestDiffTextsBasics(t *testing.T) {
	hunks := DiffTexts("a\nb\nc", "a\nX\nc")
	// keep a, delete b, add X, keep c (delete/add order may produce
	// add-then-delete depending on tie-breaks; verify content).
	var dels, adds, keeps []string
	for _, h := range hunks {
		switch h.Kind {
		case DiffDelete:
			dels = append(dels, h.Lines...)
		case DiffAdd:
			adds = append(adds, h.Lines...)
		case DiffKeep:
			keeps = append(keeps, h.Lines...)
		}
	}
	if len(keeps) != 2 || keeps[0] != "a" || keeps[1] != "c" {
		t.Fatalf("keeps = %v", keeps)
	}
	if len(dels) != 1 || dels[0] != "b" {
		t.Fatalf("dels = %v", dels)
	}
	if len(adds) != 1 || adds[0] != "X" {
		t.Fatalf("adds = %v", adds)
	}
}

func TestDiffTextsEdges(t *testing.T) {
	if hunks := DiffTexts("", ""); len(hunks) != 0 {
		t.Fatalf("empty diff = %v", hunks)
	}
	hunks := DiffTexts("", "new\nlines")
	if len(hunks) != 1 || hunks[0].Kind != DiffAdd || len(hunks[0].Lines) != 2 {
		t.Fatalf("all-add = %v", hunks)
	}
	hunks = DiffTexts("old", "")
	if len(hunks) != 1 || hunks[0].Kind != DiffDelete {
		t.Fatalf("all-delete = %v", hunks)
	}
	same := DiffTexts("x\ny", "x\ny")
	if len(same) != 1 || same[0].Kind != DiffKeep {
		t.Fatalf("identity diff = %v", same)
	}
}

// TestDiffReconstructionProperty: applying a diff to its source yields its
// target (adds+keeps in order == target; deletes+keeps == source).
func TestDiffReconstructionProperty(t *testing.T) {
	f := func(aw, bw []byte) bool {
		a := linesFromBytes(aw)
		b := linesFromBytes(bw)
		hunks := DiffTexts(a, b)
		var src, dst []string
		for _, h := range hunks {
			switch h.Kind {
			case DiffKeep:
				src = append(src, h.Lines...)
				dst = append(dst, h.Lines...)
			case DiffDelete:
				src = append(src, h.Lines...)
			case DiffAdd:
				dst = append(dst, h.Lines...)
			}
		}
		return strings.Join(src, "\n") == a && strings.Join(dst, "\n") == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// linesFromBytes derives a small multi-line text from fuzz bytes, keeping
// line counts bounded so the LCS table stays small.
func linesFromBytes(b []byte) string {
	var lines []string
	for i, c := range b {
		if i >= 20 {
			break
		}
		lines = append(lines, string('a'+rune(c%5)))
	}
	return strings.Join(lines, "\n")
}

func TestDiffVersionsOnDocument(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "diffed")
	d.InsertText("alice", 0, "line one\nline two\nline three")
	v1, _ := d.CreateVersion("alice", "v1")
	// Replace "two" with "2".
	d.DeleteRange("alice", 14, 3)
	d.InsertText("alice", 14, "2")
	v2, _ := d.CreateVersion("alice", "v2")

	hunks, err := d.diffVersions(v1.ID, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	rendered := formatDiff(hunks)
	if !strings.Contains(rendered, "- line two") || !strings.Contains(rendered, "+ line 2") {
		t.Fatalf("diff:\n%s", rendered)
	}
	if !strings.Contains(rendered, "  line one") {
		t.Fatalf("diff lost context:\n%s", rendered)
	}

	// Diff against the current text.
	d.InsertText("bob", d.Len(), "\nline four")
	hunks, err = d.diffVersions(v2.ID, util.NilID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(formatDiff(hunks), "+ line four") {
		t.Fatalf("diff vs current:\n%s", formatDiff(hunks))
	}
}
