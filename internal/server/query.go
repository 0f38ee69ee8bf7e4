package server

// The query surface: OpQuery requests answered from the cluster's
// incremental indexers (placement.StartIndexers), with every result
// ACL-filtered fail-closed before it leaves the process. The index
// itself is tenant-blind — it holds unredacted text and cross-document
// provenance — so this file is the only place its answers cross a trust
// boundary: doc-level read denial drops hits entirely, and range denies
// re-derive snippets and clip provenance runs through the same
// security.ReadableMask discipline as the PR 7 push redactor.

import (
	"errors"
	"fmt"
	"strings"

	"tendax/internal/index"
	"tendax/internal/lineage"
	"tendax/internal/mining"
	"tendax/internal/protocol"
	"tendax/internal/search"
	"tendax/internal/security"
	"tendax/internal/util"
)

func (c *conn) query(req *protocol.Message) *protocol.Message {
	ix := c.srv.cl.Index()
	if ix == nil {
		return &protocol.Message{Err: "server: incremental indexers are not running",
			Code: protocol.ErrUnsupported}
	}
	q := req.Query
	if q == nil {
		return fail(errors.New("server: query payload missing"))
	}
	c.srv.metrics.Queries.Add(1)
	switch q.Kind {
	case protocol.QuerySearch:
		return c.querySearch(ix, q)
	case protocol.QuerySources:
		return c.querySources(ix, q)
	default:
		return fail(fmt.Errorf("server: unknown query kind %q", q.Kind))
	}
}

func (c *conn) querySearch(ix *index.Cluster, q *protocol.QueryReq) *protocol.Message {
	res, err := ix.Query(search.Query{
		Terms:      q.Terms,
		InHeadings: q.InHeadings,
		Rank:       search.Ranker(q.Rank),
		// No Limit here: it is applied after ACL filtering below, so a
		// dropped hit never shortens another tenant's page — and never
		// reveals, by its absence, that a denied document matched.
	})
	if err != nil {
		return fail(err)
	}
	hits := make([]protocol.SearchHit, 0, len(res))
	for _, r := range res {
		if c.srv.checkRead(c.user, r.Doc.ID) != nil {
			continue // fail closed: denied documents vanish from results
		}
		if !c.readableMatch(r.Doc.ID, q) {
			continue // the match itself lives in a denied range
		}
		hits = append(hits, protocol.SearchHit{
			Doc:     wireInfo(r.Doc),
			Score:   r.Score,
			Snippet: c.maskedSnippet(r.Doc.ID, r.Snippet),
		})
		if q.Limit > 0 && len(hits) == q.Limit {
			break
		}
	}
	return &protocol.Message{OK: true, Hits: hits}
}

// readableMatch reports whether every query term still matches within the
// portion of the document this user may read. The index matched against
// the trusted full text; a term occurring only inside a range-denied
// region must not surface the document — the hit's existence would reveal
// what the denial hides. Fails closed on any resolution failure.
func (c *conn) readableMatch(doc util.ID, q *protocol.QueryReq) bool {
	if c.srv.sec == nil || len(q.Terms) == 0 {
		return true
	}
	fp := c.srv.sec.ReadVisibility(c.user, doc)
	if fp == 0 {
		return true
	}
	if fp == security.DeniedVisibility {
		return false
	}
	d, err := c.srv.engineFor(doc).OpenDocument(doc)
	if err != nil {
		return false
	}
	tree := d.Snapshot().Tree()
	mask := c.srv.sec.ReadableMask(c.user, doc, tree.VisibleIDs())
	if mask == nil {
		return true
	}
	runes := []rune(tree.Text())
	for i := range runes {
		if i >= len(mask) || !mask[i] {
			runes[i] = ' ' // a token boundary, so denied runs never merge terms
		}
	}
	visible := string(runes)
	if q.InHeadings {
		// Headings match by substring on lowered text; re-verify the same
		// way against the readable text (stricter than heading-only, which
		// errs toward dropping — never toward leaking).
		visible = strings.ToLower(visible)
		for _, t := range q.Terms {
			if !strings.Contains(visible, strings.ToLower(t)) {
				return false
			}
		}
		return true
	}
	toks := make(map[string]bool)
	for _, t := range mining.Tokenize(visible) {
		toks[t] = true
	}
	for _, t := range q.Terms {
		if !toks[strings.ToLower(t)] {
			return false
		}
	}
	return true
}

// maskedSnippet re-derives a search snippet through the requesting user's
// character-level read mask. The index stores the trusted full-text
// snippet; per-user masking happens here, at the trust boundary, with the
// redactor's fail-closed defaults: any resolution failure masks rather
// than reveals.
func (c *conn) maskedSnippet(doc util.ID, snippet string) string {
	if c.srv.sec == nil {
		return snippet
	}
	fp := c.srv.sec.ReadVisibility(c.user, doc)
	if fp == 0 {
		return snippet // full visibility: the indexed snippet is exact
	}
	masked := func(s string) string {
		runes := []rune(s)
		for i := range runes {
			runes[i] = MaskRune
		}
		return string(runes)
	}
	if fp == security.DeniedVisibility {
		return masked(snippet)
	}
	d, err := c.srv.engineFor(doc).OpenDocument(doc)
	if err != nil {
		return masked(snippet)
	}
	tree := d.Snapshot().Tree()
	vis := tree.VisibleIDs()
	mask := c.srv.sec.ReadableMask(c.user, doc, vis)
	runes := []rune(tree.Text())
	const snippetLen = 80
	trunc := len(runes) > snippetLen
	if trunc {
		runes = runes[:snippetLen]
	}
	for i := range runes {
		if mask != nil && (i >= len(mask) || !mask[i]) {
			runes[i] = MaskRune
		}
	}
	if trunc {
		return string(runes) + "…"
	}
	return string(runes)
}

func (c *conn) querySources(ix *index.Cluster, q *protocol.QueryReq) *protocol.Message {
	docID := util.ID(q.Doc)
	if err := c.srv.checkRead(c.user, docID); err != nil {
		return fail(err)
	}
	refs, err := ix.Provenance(docID, q.Pos, q.N)
	if err != nil {
		return fail(err)
	}
	refs, err = c.readableRefs(docID, refs)
	if err != nil {
		return fail(err)
	}
	out := make([]protocol.SourceRef, len(refs))
	for i, r := range refs {
		srcDoc, srcName := uint64(r.SrcDoc), r.SrcName
		if !r.SrcDoc.IsNil() && c.srv.checkRead(c.user, r.SrcDoc) != nil {
			// The run's characters are readable here, but their origin is a
			// document this user is denied: anonymize the source identity.
			srcDoc, srcName = 0, ""
		}
		out[i] = protocol.SourceRef{
			SrcDoc: srcDoc, SrcName: srcName,
			Chars: r.Chars, From: r.From, To: r.To,
		}
	}
	return &protocol.Message{OK: true, Sources: out}
}

// readableRefs clips provenance runs to the positions the user may read:
// where a character is range-denied, its origin is part of what the deny
// hides, so the run is split around it (fail closed on any resolution
// failure).
func (c *conn) readableRefs(doc util.ID, refs []lineage.SourceRef) ([]lineage.SourceRef, error) {
	if c.srv.sec == nil {
		return refs, nil
	}
	fp := c.srv.sec.ReadVisibility(c.user, doc)
	if fp == 0 {
		return refs, nil
	}
	if fp == security.DeniedVisibility {
		return nil, nil
	}
	d, err := c.srv.engineFor(doc).OpenDocument(doc)
	if err != nil {
		return nil, err
	}
	vis := d.Snapshot().Tree().VisibleIDs()
	mask := c.srv.sec.ReadableMask(c.user, doc, vis)
	if mask == nil {
		return refs, nil
	}
	readable := func(p int) bool { return p >= 0 && p < len(mask) && mask[p] }
	var out []lineage.SourceRef
	for _, r := range refs {
		for i := r.From; i < r.To; {
			for i < r.To && !readable(i) {
				i++
			}
			j := i
			for j < r.To && readable(j) {
				j++
			}
			if j > i {
				out = append(out, lineage.SourceRef{
					SrcDoc: r.SrcDoc, SrcName: r.SrcName,
					Chars: j - i, From: i, To: j,
				})
			}
			i = j
		}
	}
	return out, nil
}
