// Package search implements the TeNDaX meta-data-based searching and
// ranking plug-in: documents and parts of documents are found by content,
// by structure (headings), or by creation-process metadata, and results are
// ranked by relevance, recency, citations (lineage in-degree) or reads —
// the paper's "most cited" / "newest" ranking options.
package search

import (
	"math"
	"sort"
	"strings"

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
	eng      *core.Engine
	postings map[string]map[util.ID]int // term -> doc -> tf
	terms    map[util.ID]map[string]int // doc -> tf (reverse view, for diffing)
	headings map[util.ID]string         // doc -> concatenated heading text
	lengths  map[util.ID]int
	tokens   int // sum of lengths: BM25's average length, kept as a running integer
	snippets map[util.ID]string
	docs     map[util.ID]core.DocInfo
	cites    map[util.ID]int
	reads    map[util.ID]int
}

// New returns an empty index ready for incremental maintenance via
// UpdateDoc/SetCites/SetReads (the index.Service path).
func New(eng *core.Engine) *Index {
	return &Index{
		eng:      eng,
		postings: make(map[string]map[util.ID]int),
		terms:    make(map[util.ID]map[string]int),
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
	var hb strings.Builder
	for _, e := range snap.ResolveSpans(heads) {
		if e.From < e.To {
			hb.WriteString(snap.Tree().Slice(e.From, e.To-e.From))
			hb.WriteString(" ")
		}
	}
	return strings.ToLower(hb.String())
}

// snippetRunes is how much of a document's head a result shows.
const snippetRunes = 80

// UpdateDoc replaces one document's contribution to the index with the
// given state: the prime path, and the fallback when the positional effect
// of a change is unknown. The update diffs the new term frequencies
// against the old ones, so its cost is O(terms in the document) regardless
// of corpus size; PatchDoc is the O(edit) path for a known change.
func (ix *Index) UpdateDoc(info core.DocInfo, text, headings string) {
	id := info.ID
	toks := mining.Tokenize(text)
	fresh := make(map[string]int, len(toks))
	for _, t := range toks {
		fresh[t]++
	}
	old := ix.terms[id]
	for t := range old {
		if fresh[t] == 0 {
			ix.setTF(id, t, 0)
		}
	}
	for t, n := range fresh {
		if old[t] != n {
			ix.setTF(id, t, n)
		}
	}
	ix.setLength(id, len(toks))
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
// regions, widened to token boundaries, are read and re-tokenized, and the
// term-frequency difference goes through the same posting mutation as
// UpdateDoc's — the cost tracks the edit, not the document. Headings are
// the caller's (SetHeadings): they depend on spans, not only on text.
func (ix *Index) PatchDoc(info core.DocInfo, old, cur *texttree.Snapshot, changed []Range) {
	id := info.ID
	ix.docs[id] = info
	if len(changed) == 0 {
		return
	}
	diff := make(map[string]int)
	length := ix.lengths[id]
	for _, w := range tokenWindows(old, cur, changed) {
		for _, t := range mining.Tokenize(old.Slice(w.OldStart, w.OldEnd-w.OldStart)) {
			diff[t]--
			length--
		}
		for _, t := range mining.Tokenize(cur.Slice(w.NewStart, w.NewEnd-w.NewStart)) {
			diff[t]++
			length++
		}
	}
	for t, dn := range diff {
		if dn != 0 {
			ix.setTF(id, t, ix.terms[id][t]+dn)
		}
	}
	ix.setLength(id, length)
	// The snippet shows the head and whether more follows.
	if changed[0].NewStart < snippetRunes || old.Len() <= snippetRunes || cur.Len() <= snippetRunes {
		ix.snippets[id] = firstN(cur.Slice(0, snippetRunes+1), snippetRunes)
	}
}

// SetHeadings replaces one document's heading text (HeadingText).
func (ix *Index) SetHeadings(doc util.ID, headings string) { ix.headings[doc] = headings }

// tokenWindows widens each changed range to token boundaries in both
// texts and merges windows that came to touch. Outside the ranges the two
// texts are the same, so both sides of a window widen by the same runes
// unless they reach a neighbouring range — exactly the case the merge
// absorbs. What lies outside the windows therefore tokenizes identically
// in old and cur, and the windows alone carry the whole difference.
func tokenWindows(old, cur *texttree.Snapshot, changed []Range) []Range {
	out := make([]Range, 0, len(changed))
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
		ch, ok := t.CharAt(pos)
		return ok && mining.IsTokenRune(ch.Rune)
	}
	for start > 0 && tokenAt(start-1) {
		start--
	}
	for tokenAt(end) {
		end++
	}
	return start, end
}

// setTF sets one (term, document) frequency — 0 removes the posting — in
// both the postings and the per-document reverse view: the one place
// postings are mutated, shared by the wholesale and the changed-range path.
func (ix *Index) setTF(doc util.ID, term string, n int) {
	m := ix.postings[term]
	if n == 0 {
		delete(ix.terms[doc], term)
		delete(m, doc)
		if len(m) == 0 {
			delete(ix.postings, term)
		}
		return
	}
	if m == nil {
		m = make(map[util.ID]int)
		ix.postings[term] = m
	}
	m[doc] = n
	tf := ix.terms[doc]
	if tf == nil {
		tf = make(map[string]int)
		ix.terms[doc] = tf
	}
	tf[term] = n
}

// setLength records a document's token count and keeps the corpus total.
func (ix *Index) setLength(doc util.ID, n int) {
	ix.tokens += n - ix.lengths[doc]
	ix.lengths[doc] = n
}

// SetCites overrides the citation count used by ByMostCited ranking
// (maintained edge-by-edge by the incremental indexer).
func (ix *Index) SetCites(doc util.ID, n int) { ix.cites[doc] = n }

// SetReads overrides the read count used by ByMostRead ranking.
func (ix *Index) SetReads(doc util.ID, n int) { ix.reads[doc] = n }

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

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int { return len(ix.docs) }

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
				for id, tf := range ix.postings[term] {
					matches[id] = ix.bm25(term, id, tf)
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

// bm25 is a BM25-flavoured term weight (k1 = 1.2, b = 0.75).
func (ix *Index) bm25(term string, doc util.ID, tf int) float64 {
	const k1, b = 1.2, 0.75
	df := len(ix.postings[term])
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

func firstN(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n]) + "…"
}
