package core

import (
	"testing"

	"tendax/internal/util"
)

// insertNote attaches a note to the visible character at pos and returns
// its span.
func insertNote(d *Document, user string, pos int, text string) (util.ID, error) {
	res, err := d.Apply(user, []EditOp{{Kind: EditNote, Pos: pos, Text: text}})
	if err != nil {
		return util.NilID, err
	}
	return res[0].Span, nil
}

func TestRenderMarkupBasics(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "styled")
	d.InsertText("alice", 0, "Title and body text")
	d.ApplyLayout("alice", 0, 5, SpanHeading, "1")
	d.ApplyLayout("bob", 10, 4, SpanBold, "true")

	got, err := d.RenderMarkup()
	if err != nil {
		t.Fatal(err)
	}
	want := "<heading=1>Title</heading> and <bold>body</bold> text"
	if got != want {
		t.Fatalf("markup:\n got %q\nwant %q", got, want)
	}
}

func TestRenderMarkupSurvivesConcurrentEdits(t *testing.T) {
	// Spans anchor to character identities: inserting text before and
	// inside a span stretches or shifts it naturally.
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "anchored")
	d.InsertText("alice", 0, "bold")
	d.ApplyLayout("alice", 0, 4, SpanBold, "true")
	d.InsertText("bob", 0, ">> ")  // before the span
	d.InsertText("carol", 5, "--") // inside the span (after 'b','o' -> pos 5 = after "bo")

	got, err := d.RenderMarkup()
	if err != nil {
		t.Fatal(err)
	}
	want := ">> <bold>bo--ld</bold>"
	if got != want {
		t.Fatalf("markup after edits:\n got %q\nwant %q", got, want)
	}
}

func TestRenderMarkupNotes(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "noted")
	d.InsertText("alice", 0, "check this")
	insertNote(d, "bob", 6, "verify!")
	got, err := d.RenderMarkup()
	if err != nil {
		t.Fatal(err)
	}
	want := "check [note(bob): verify!]this"
	if got != want {
		t.Fatalf("markup with note:\n got %q\nwant %q", got, want)
	}
}

func TestOutline(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "structured")
	d.InsertText("alice", 0, "Intro\nbody one\nMethods\nbody two\nResults\n")
	d.ApplyLayout("alice", 0, 5, SpanHeading, "1")  // Intro
	d.ApplyLayout("alice", 15, 7, SpanHeading, "2") // Methods
	d.ApplyLayout("alice", 32, 7, SpanHeading, "1") // Results

	outline, err := d.Outline()
	if err != nil {
		t.Fatal(err)
	}
	if len(outline) != 3 {
		t.Fatalf("outline = %+v", outline)
	}
	if outline[0].Text != "Intro" || outline[0].Level != 1 {
		t.Fatalf("outline[0] = %+v", outline[0])
	}
	if outline[1].Text != "Methods" || outline[1].Level != 2 {
		t.Fatalf("outline[1] = %+v", outline[1])
	}
	if outline[2].Text != "Results" {
		t.Fatalf("outline[2] = %+v", outline[2])
	}
	// Outline reflects edits: insert a prefix; positions shift but text
	// content of headings is stable.
	d.InsertText("bob", 0, "PREFACE\n")
	outline2, _ := d.Outline()
	if outline2[0].Text != "Intro" || outline2[0].Pos != 8 {
		t.Fatalf("outline after prefix = %+v", outline2[0])
	}
}

func TestOutlineEmptyAndUnheaded(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "plain")
	outline, err := d.Outline()
	if err != nil || len(outline) != 0 {
		t.Fatalf("outline of empty doc = %v, %v", outline, err)
	}
	d.InsertText("alice", 0, "no headings here")
	outline, _ = d.Outline()
	if len(outline) != 0 {
		t.Fatalf("outline = %v", outline)
	}
}
