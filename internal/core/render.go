package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// OutlineEntry is one heading in a document's structure.
type OutlineEntry struct {
	Level int
	Text  string
	Pos   int // visible position of the heading start
}

// Outline extracts the document structure from heading spans, in document
// order — the paper's structure definitions made queryable. Text and span
// ranges resolve against the latest committed snapshot.
func (d *Document) Outline() ([]OutlineEntry, error) {
	return d.Snapshot().Outline()
}

// Outline extracts the snapshot's structure from heading spans. The span
// rows are the latest committed ones (Spans); their ranges resolve against
// this snapshot's text, so a heading can never point past its end, and a
// heading whose start the snapshot has never seen is skipped.
func (s *DocSnapshot) Outline() ([]OutlineEntry, error) {
	spans, err := s.Spans()
	if err != nil {
		return nil, err
	}
	text := []rune(s.Text())
	var out []OutlineEntry
	for i, e := range s.ResolveSpans(spans) {
		if spans[i].Kind != SpanHeading || e.From >= e.To {
			continue
		}
		level, err := strconv.Atoi(spans[i].Value)
		if err != nil {
			level = 1
		}
		out = append(out, OutlineEntry{Level: level, Text: string(text[e.From:e.To]), Pos: e.From})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// RenderMarkup renders the document as plain text with inline layout
// markers: `<bold>…</bold>`, `<heading=1>…</heading>` and `[note(author):
// text]` anchors. This is the headless substitute for the GUI editors'
// rich rendering: it proves layout and structure survive collaborative
// editing with character-anchored spans. Text and span ranges resolve
// against the latest committed snapshot, so a concurrent writer can never
// tear the rendering (the seed version re-locked per span and could see
// three different document states in one render).
func (d *Document) RenderMarkup() (string, error) {
	return d.Snapshot().RenderMarkup()
}

// RenderMarkup renders this snapshot with inline layout markers. The span
// rows are the latest committed ones (Spans); a span whose start the
// snapshot has never seen is skipped.
func (s *DocSnapshot) RenderMarkup() (string, error) {
	spans, err := s.Spans()
	if err != nil {
		return "", err
	}
	text := []rune(s.Text())

	type marker struct {
		pos   int
		order int // opens before closes at the same position sort later
		text  string
	}
	var markers []marker
	for i, e := range s.ResolveSpans(spans) {
		sp := spans[i]
		if !e.Seen {
			continue
		}
		if sp.Kind == SpanNote {
			markers = append(markers, marker{pos: e.From, order: 0,
				text: fmt.Sprintf("[note(%s): %s]", sp.Author, sp.Value)})
			continue
		}
		if e.From >= e.To {
			continue
		}
		openTxt := "<" + sp.Kind
		if sp.Value != "" && sp.Value != "true" {
			openTxt += "=" + sp.Value
		}
		openTxt += ">"
		markers = append(markers, marker{pos: e.From, order: 1, text: openTxt})
		markers = append(markers, marker{pos: e.To, order: -1, text: "</" + sp.Kind + ">"})
	}
	sort.SliceStable(markers, func(i, j int) bool {
		if markers[i].pos != markers[j].pos {
			return markers[i].pos < markers[j].pos
		}
		return markers[i].order < markers[j].order
	})

	var sb strings.Builder
	mi := 0
	for pos := 0; pos <= len(text); pos++ {
		for mi < len(markers) && markers[mi].pos == pos {
			sb.WriteString(markers[mi].text)
			mi++
		}
		if pos < len(text) {
			sb.WriteRune(text[pos])
		}
	}
	return sb.String(), nil
}
