// Package search implements the TeNDaX meta-data-based searching and
// ranking plug-in: documents and parts of documents are found by content,
// by structure (headings), or by creation-process metadata, and results are
// ranked by relevance, recency, citations (lineage in-degree) or reads —
// the paper's "most cited" / "newest" ranking options.
package search

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"tendax/internal/core"
	"tendax/internal/folders"
	"tendax/internal/lineage"
	"tendax/internal/mining"
	"tendax/internal/texttree"
	"tendax/internal/util"
)

// Ranker selects the result ordering.
type Ranker string

// Ranking options.
const (
	ByRelevance Ranker = "relevance"
	ByNewest    Ranker = "newest"
	ByMostCited Ranker = "most-cited"
	ByMostRead  Ranker = "most-read"
)

// Query describes one search.
type Query struct {
	Terms      []string          // content terms (AND semantics)
	InHeadings bool              // restrict matching to heading spans
	Filter     folders.Predicate // optional metadata filter
	Rank       Ranker            // default ByRelevance
	Limit      int               // 0 = no limit
}

// Result is one ranked hit.
type Result struct {
	Doc     core.DocInfo
	Score   float64
	Snippet string
}

// Index is the searchable view over an engine: an inverted index over
// content plus heading text. It carries no locking of its own — the
// incremental index.Service serialises access, and the BuildIndex oracle
// path is single-threaded.
type Index struct {
	eng *core.Engine
	// A term is known by an ID: termIDs maps it to the index in lists of
	// its posting list, which keeps the term's one string, and the
	// reverse view holds IDs. A frequency lives only in its posting, so
	// a frequency change touches no map and makes no string; only a term
	// new to the index is made one. A dropped term's ID is reused.
	termIDs  map[string]uint32
	lists    []postingList                   // by term ID; a free ID's list is empty
	free     []uint32                        // IDs of dropped terms
	terms    map[util.ID]map[uint32]struct{} // doc -> its term IDs (reverse view, for diffing)
	headings map[util.ID]string              // doc -> concatenated heading text
	lengths  map[util.ID]int
	tokens   int // sum of lengths: BM25's average length, kept as a running integer
	snippets map[util.ID]string
	docs     map[util.ID]core.DocInfo
	cites    map[util.ID]int
	reads    map[util.ID]int

	// Scratch every PatchDoc reuses (the caller serialises them): the
	// tokens of the changed windows, the windows, and a snippet being
	// built.
	scan    mining.Scanner
	windows []Range
	snip    []byte
}

// posting is one document's frequency of one term: an entry of the term's
// posting list.
type posting struct {
	doc util.ID
	tf  int32
}

// postingList is one term's postings, sorted by doc, never empty while
// the term is known, and the term.
type postingList struct {
	term string
	docs []posting
}

// find returns where doc's posting is in l, or would go.
func (l *postingList) find(doc util.ID) (int, bool) {
	return slices.BinarySearchFunc(l.docs, doc, func(p posting, doc util.ID) int { return cmp.Compare(p.doc, doc) })
}

// tf returns doc's frequency of l's term, 0 if it has none.
func (l *postingList) tf(doc util.ID) int {
	if i, ok := l.find(doc); ok {
		return int(l.docs[i].tf)
	}
	return 0
}

// New returns an empty index ready for incremental maintenance via
// UpdateDoc/SetCites/SetReads (the index.Service path).
func New(eng *core.Engine) *Index {
	return &Index{
		eng:      eng,
		termIDs:  make(map[string]uint32),
		terms:    make(map[util.ID]map[uint32]struct{}),
		headings: make(map[util.ID]string),
		lengths:  make(map[util.ID]int),
		snippets: make(map[util.ID]string),
		docs:     make(map[util.ID]core.DocInfo),
		cites:    make(map[util.ID]int),
		reads:    make(map[util.ID]int),
	}
}

// BuildIndex constructs the index by rescanning the current document set.
// It is the reference oracle: index.Service folds the awareness op stream
// into the same structures in O(ops), and TestDeltaFoldMatchesRebuild and
// TestServiceMatchesRebuild check the folded state against this rescan.
//
//tendax:allow-testonly oracle: TestPostingsMatchTermsView and TestServiceMatchesRebuild compare the folded index against this rescan
func BuildIndex(eng *core.Engine) (*Index, error) {
	ix := New(eng)
	infos, err := eng.ListDocuments()
	if err != nil {
		return nil, err
	}
	for _, info := range infos {
		if err := ix.indexDoc(info); err != nil {
			return nil, err
		}
	}
	g, err := lineage.Build(eng)
	if err != nil {
		return nil, err
	}
	for id := range ix.docs {
		ix.cites[id] = g.CitationCount(id)
		if evs, err := eng.ReadEventsOf(id); err == nil {
			ix.reads[id] = len(evs)
		}
	}
	return ix, nil
}

func (ix *Index) indexDoc(info core.DocInfo) error {
	d, err := ix.eng.OpenDocument(info.ID)
	if err != nil {
		return err
	}
	snap := d.Snapshot()
	spans, err := snap.Spans()
	if err != nil {
		return err
	}
	ix.UpdateDoc(d.Info(), snap.Text(), HeadingText(snap, spans))
	return nil
}

// HeadingText concatenates (lowercased) the text of every heading span,
// all resolved in one walk and read by position against snap — so the
// rescan, the wholesale refresh and the changed-range refresh compute
// byte-identical heading strings, none of them rendering the whole
// document for it. A heading snap has never seen the start of is skipped.
func HeadingText(snap *core.DocSnapshot, spans []core.Span) string {
	var heads []core.Span
	for _, s := range spans {
		if s.Kind == core.SpanHeading {
			heads = append(heads, s)
		}
	}
	return Headings(snap.Tree(), snap.ResolveSpans(heads))
}

// Headings concatenates (lowercased) the text of t at each heading extent
// of at, as HeadingText does with the extents it resolves; an empty or
// unseen extent adds nothing.
func Headings(t *texttree.Snapshot, at []core.Extent) string {
	var hb strings.Builder
	for _, e := range at {
		if e.From < e.To {
			hb.WriteString(t.Slice(e.From, e.To-e.From))
			hb.WriteString(" ")
		}
	}
	return strings.ToLower(hb.String())
}

// snippetRunes is how much of a document's head a result shows.
const snippetRunes = 80

// UpdateDoc replaces one document's contribution to the index with the
// given state: the prime path, and the fallback when the positional effect
// of a change is unknown. The update sets only the term frequencies that
// differ from the old ones, so its cost is O(tokens in the document)
// regardless of corpus size; PatchDoc is the O(edit) path for a known
// change.
func (ix *Index) UpdateDoc(info core.DocInfo, text, headings string) {
	id := info.ID
	sc := mining.Scanner{Buf: make([]byte, 0, len(text))}
	for _, r := range text {
		sc.Rune(r)
	}
	sc.End()
	// Count each distinct term under one string, the one the index keeps
	// for a term new to it.
	slot := make(map[string]int)
	var counts []int
	for _, sp := range sc.Spans {
		tok := sc.Token(sp)
		if i, ok := slot[string(tok)]; ok {
			counts[i]++
			continue
		}
		slot[string(tok)] = len(counts)
		counts = append(counts, 1)
	}
	for term := range ix.terms[id] {
		if _, ok := slot[ix.lists[term].term]; !ok {
			ix.setTF(id, term, 0)
		}
	}
	for t, i := range slot {
		if term := ix.termID(t); ix.lists[term].tf(id) != counts[i] {
			ix.setTF(id, term, counts[i])
		}
	}
	ix.setLength(id, len(sc.Spans))
	ix.snippets[id] = firstN(text, snippetRunes)
	ix.docs[id] = info
	ix.headings[id] = headings
}

// Range is one changed region between two states of a document's text:
// runes [OldStart, OldEnd) of the old text were replaced by runes
// [NewStart, NewEnd) of the new one; everything outside the ranges of a
// set is identical in both, merely shifted.
type Range struct {
	OldStart, OldEnd int
	NewStart, NewEnd int
}

// PatchDoc folds a known change of an already indexed document: old is
// the text the document's term table reflects, cur the text now, changed
// the regions in which they differ, in order and disjoint. Only those
// regions, widened to token boundaries, are read — rune by rune from the
// snapshots into the scanner, with no string rendered — and the tokens
// they lost are netted against the ones they gained, so the cost tracks
// the edit, not the document, and a term becomes a string only where its
// frequency changes. Headings are the caller's (SetHeadings): they depend
// on spans, not only on text.
func (ix *Index) PatchDoc(info core.DocInfo, old, cur *texttree.Snapshot, changed []Range) {
	id := info.ID
	ix.docs[id] = info
	if len(changed) == 0 {
		return
	}
	ix.windows = tokenWindows(ix.windows[:0], old, cur, changed)
	sc := &ix.scan
	sc.Reset()
	for _, w := range ix.windows {
		scanRunes(sc, old, w.OldStart, w.OldEnd)
	}
	gone := len(sc.Spans)
	for _, w := range ix.windows {
		scanRunes(sc, cur, w.NewStart, w.NewEnd)
	}
	ix.setLength(id, ix.lengths[id]+len(sc.Spans)-2*gone)
	ix.netTokens(id, sc.Spans[:gone], sc.Spans[gone:])
	// The snippet shows the head and whether more follows.
	if changed[0].NewStart < snippetRunes || old.Len() <= snippetRunes || cur.Len() <= snippetRunes {
		ix.setSnippet(id, cur)
	}
	ix.trimScratch()
}

// SetHeadings replaces one document's heading text (HeadingText).
func (ix *Index) SetHeadings(doc util.ID, headings string) { ix.headings[doc] = headings }

// scanRunes feeds the runes [start, end) of t to sc and ends the last
// token: the window is widened to token boundaries, so none continues.
func scanRunes(sc *mining.Scanner, t *texttree.Snapshot, start, end int) {
	t.WalkRunes(start, end-start, func(r rune) bool {
		sc.Rune(r)
		return true
	})
	sc.End()
}

// netTokens applies to doc's term frequencies the difference between the
// tokens the changed windows lost and the ones they gained, both spans of
// ix.scan. Each side is sorted and the two are walked in step, so a term
// that left and came back as often costs nothing and the netting is
// O(k log k) in the window tokens. Only a term new to the index becomes a
// string.
func (ix *Index) netTokens(doc util.ID, gone, added []mining.Span) {
	sc := &ix.scan
	slices.SortFunc(gone, sc.Compare)
	slices.SortFunc(added, sc.Compare)
	for len(gone) > 0 || len(added) > 0 {
		var term []byte
		if len(added) == 0 || len(gone) > 0 && sc.Compare(gone[0], added[0]) <= 0 {
			term = sc.Token(gone[0])
		} else {
			term = sc.Token(added[0])
		}
		dn := 0
		for ; len(gone) > 0 && bytes.Equal(sc.Token(gone[0]), term); gone = gone[1:] {
			dn--
		}
		for ; len(added) > 0 && bytes.Equal(sc.Token(added[0]), term); added = added[1:] {
			dn++
		}
		if dn == 0 {
			continue
		}
		id, ok := ix.termIDs[string(term)] // a map index converts nothing
		if !ok {
			id = ix.termID(string(term))
		}
		ix.setTF(doc, id, ix.lists[id].tf(doc)+dn)
	}
}

// setSnippet sets doc's snippet to firstN of t's text, read by position:
// the first snippetRunes runes and an ellipsis if more follow. The string
// is made only when the snippet changed.
func (ix *Index) setSnippet(doc util.ID, t *texttree.Snapshot) {
	b, n := ix.snip[:0], 0
	t.WalkRunes(0, snippetRunes+1, func(r rune) bool {
		if n == snippetRunes {
			b = append(b, "…"...)
			return false
		}
		b, n = utf8.AppendRune(b, r), n+1
		return true
	})
	ix.snip = b
	if string(b) != ix.snippets[doc] {
		ix.snippets[doc] = string(b)
	}
}

// maxScratch bounds the token bytes the scratch keeps between patches: a
// large paste or deletion releases the buffers it grew instead of holding
// them for the next keystroke.
const maxScratch = 64 << 10

// trimScratch drops scratch buffers a large patch grew past maxScratch.
func (ix *Index) trimScratch() {
	if cap(ix.scan.Buf) > maxScratch || cap(ix.scan.Spans) > maxScratch/8 {
		ix.scan = mining.Scanner{}
	}
}

// tokenWindows appends to out each changed range widened to token
// boundaries in both texts, merging windows that came to touch. Outside
// the ranges the two texts are the same, so both sides of a window widen
// by the same runes unless they reach a neighbouring range — exactly the
// case the merge absorbs. What lies outside the windows therefore
// tokenizes identically in old and cur, and the windows alone carry the
// whole difference.
func tokenWindows(out []Range, old, cur *texttree.Snapshot, changed []Range) []Range {
	for _, c := range changed {
		var w Range
		w.OldStart, w.OldEnd = widen(old, c.OldStart, c.OldEnd)
		w.NewStart, w.NewEnd = widen(cur, c.NewStart, c.NewEnd)
		if n := len(out); n > 0 && (w.OldStart <= out[n-1].OldEnd || w.NewStart <= out[n-1].NewEnd) {
			p := &out[n-1]
			p.OldStart, p.OldEnd = min(p.OldStart, w.OldStart), max(p.OldEnd, w.OldEnd)
			p.NewStart, p.NewEnd = min(p.NewStart, w.NewStart), max(p.NewEnd, w.NewEnd)
			continue
		}
		out = append(out, w)
	}
	return out
}

// widen grows [start, end) until the runes just outside it are not token
// runes (or the text ends), reading by position.
func widen(t *texttree.Snapshot, start, end int) (int, int) {
	tokenAt := func(pos int) bool {
		r, ok := t.RuneAt(pos)
		return ok && mining.IsTokenRune(r)
	}
	for start > 0 && tokenAt(start-1) {
		start--
	}
	for tokenAt(end) {
		end++
	}
	return start, end
}

// termID returns term's ID, giving a term new to the index one, with
// term as its string.
func (ix *Index) termID(term string) uint32 {
	if id, ok := ix.termIDs[term]; ok {
		return id
	}
	var id uint32
	if n := len(ix.free); n > 0 {
		id, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		id = uint32(len(ix.lists))
		ix.lists = append(ix.lists, postingList{})
	}
	ix.lists[id].term = term
	ix.termIDs[term] = id
	return id
}

// setTF sets doc's frequency of term to n — 0 removes the posting — in
// both the posting list and the per-document reverse view: the one place
// postings are mutated, shared by the wholesale and the changed-range
// path. The list stays sorted by doc; the last posting's removal drops
// the term and frees its ID.
func (ix *Index) setTF(doc util.ID, term uint32, n int) {
	pl := &ix.lists[term]
	i, found := pl.find(doc)
	switch {
	case n == 0:
		if found {
			pl.docs = slices.Delete(pl.docs, i, i+1)
			delete(ix.terms[doc], term)
		}
		if len(pl.docs) == 0 {
			delete(ix.termIDs, pl.term)
			*pl = postingList{}
			ix.free = append(ix.free, term)
		}
	case found:
		pl.docs[i].tf = int32(n)
	default:
		pl.docs = slices.Insert(pl.docs, i, posting{doc, int32(n)})
		terms := ix.terms[doc]
		if terms == nil {
			terms = make(map[uint32]struct{})
			ix.terms[doc] = terms
		}
		terms[term] = struct{}{}
	}
}

// setLength records a document's token count and keeps the corpus total.
func (ix *Index) setLength(doc util.ID, n int) {
	ix.tokens += n - ix.lengths[doc]
	ix.lengths[doc] = n
}

// SetCites overrides the citation count used by ByMostCited ranking
// (maintained edge-by-edge by the incremental indexer).
func (ix *Index) SetCites(doc util.ID, n int) { ix.cites[doc] = n }

// RefreshReads recomputes read counts for every indexed document from the
// reads table. Reads are recorded without publishing a bus event, so the
// incremental indexer calls this lazily when a ByMostRead query arrives.
func (ix *Index) RefreshReads() error {
	for id := range ix.docs {
		evs, err := ix.eng.ReadEventsOf(id)
		if err != nil {
			return err
		}
		ix.reads[id] = len(evs)
	}
	return nil
}

// docCount returns the number of indexed documents.
func (ix *Index) docCount() int { return len(ix.docs) }

// Search executes a query.
func (ix *Index) Search(q Query) ([]Result, error) {
	if q.Rank == "" {
		q.Rank = ByRelevance
	}
	// Candidate set: documents matching every term (in headings if asked),
	// or all documents for a pure metadata query.
	var cands map[util.ID]float64
	if len(q.Terms) == 0 {
		cands = make(map[util.ID]float64, len(ix.docs))
		for id := range ix.docs {
			cands[id] = 0
		}
	} else {
		for i, term := range q.Terms {
			term = strings.ToLower(term)
			var matches map[util.ID]float64
			if q.InHeadings {
				matches = map[util.ID]float64{}
				for id, htext := range ix.headings {
					if strings.Contains(htext, term) {
						matches[id] = 1
					}
				}
			} else {
				matches = map[util.ID]float64{}
				var list []posting
				if id, ok := ix.termIDs[term]; ok {
					list = ix.lists[id].docs
				}
				for _, p := range list {
					matches[p.doc] = ix.bm25(len(list), p.doc, int(p.tf))
				}
			}
			if i == 0 {
				cands = matches
			} else {
				for id := range cands {
					if w, ok := matches[id]; ok {
						cands[id] += w
					} else {
						delete(cands, id)
					}
				}
			}
		}
	}

	// Metadata filter.
	var ctx *folders.EvalCtx
	if q.Filter != nil {
		ctx = &folders.EvalCtx{
			Now: ix.eng.Clock().Now(),
			Reads: func(user string) []core.ReadEvent {
				evs, err := ix.eng.ReadsByUser(user)
				if err != nil {
					return nil
				}
				return evs
			},
			Props: func(doc core.DocInfo) map[string]string {
				d, err := ix.eng.OpenDocument(doc.ID)
				if err != nil {
					return nil
				}
				p, _ := d.Properties()
				return p
			},
		}
	}

	out := make([]Result, 0, len(cands))
	for id, score := range cands {
		info := ix.docs[id]
		if q.Filter != nil && !q.Filter.Match(ctx, info) {
			continue
		}
		out = append(out, Result{Doc: info, Score: score, Snippet: ix.snippets[id]})
	}
	ix.rank(out, q.Rank)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// bm25 is a BM25-flavoured weight (k1 = 1.2, b = 0.75) of a term that
// occurs tf times in doc and in df documents.
func (ix *Index) bm25(df int, doc util.ID, tf int) float64 {
	const k1, b = 1.2, 0.75
	n := len(ix.docs)
	if df == 0 || n == 0 {
		return 0
	}
	idf := math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
	// Lengths are integers, so the running total is exactly the float sum
	// of ix.lengths in any order: scores stay bit-identical.
	avgLen := float64(ix.tokens) / float64(n)
	if avgLen == 0 {
		avgLen = 1
	}
	norm := float64(tf) * (k1 + 1) /
		(float64(tf) + k1*(1-b+b*float64(ix.lengths[doc])/avgLen))
	return idf * norm
}

func (ix *Index) rank(rs []Result, r Ranker) {
	switch r {
	case ByNewest:
		sort.Slice(rs, func(i, j int) bool {
			if !rs[i].Doc.Modified.Equal(rs[j].Doc.Modified) {
				return rs[i].Doc.Modified.After(rs[j].Doc.Modified)
			}
			return rs[i].Doc.ID < rs[j].Doc.ID
		})
	case ByMostCited:
		sort.Slice(rs, func(i, j int) bool {
			ci, cj := ix.cites[rs[i].Doc.ID], ix.cites[rs[j].Doc.ID]
			if ci != cj {
				return ci > cj
			}
			return rs[i].Doc.ID < rs[j].Doc.ID
		})
		for i := range rs {
			rs[i].Score = float64(ix.cites[rs[i].Doc.ID])
		}
	case ByMostRead:
		sort.Slice(rs, func(i, j int) bool {
			ri, rj := ix.reads[rs[i].Doc.ID], ix.reads[rs[j].Doc.ID]
			if ri != rj {
				return ri > rj
			}
			return rs[i].Doc.ID < rs[j].Doc.ID
		})
		for i := range rs {
			rs[i].Score = float64(ix.reads[rs[i].Doc.ID])
		}
	default: // relevance
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Score != rs[j].Score {
				return rs[i].Score > rs[j].Score
			}
			return rs[i].Doc.ID < rs[j].Doc.ID
		})
	}
}

// firstN returns the first n runes of s and an ellipsis, or all of s if it
// has no more than n, without decoding the rest of s.
func firstN(s string, n int) string {
	for i := range s {
		if n == 0 {
			return s[:i] + "…"
		}
		n--
	}
	return s
}
