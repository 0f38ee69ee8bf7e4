// Package lineage reconstructs data provenance from the copy-paste metadata
// TeNDaX gathers on every character: which document (internal or external)
// each pasted range came from, transitively. It regenerates the information
// content of the paper's Figure 1 as a graph, with DOT and text renderings.
package lineage

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tendax/internal/core"
	"tendax/internal/util"
)

// Node is one document in the provenance graph.
type Node struct {
	Doc      util.ID
	Name     string
	External bool
}

// Edge aggregates all characters pasted from one document into another.
type Edge struct {
	From    util.ID
	To      util.ID
	Chars   int       // number of character instances carried over
	FirstAt time.Time // earliest paste
	LastAt  time.Time // latest paste
}

// Graph is the document-level provenance graph.
type Graph struct {
	Nodes map[util.ID]*Node
	Edges map[[2]util.ID]*Edge
	eng   *core.Engine
}

// NewGraph returns an empty graph ready for incremental maintenance via
// EnsureNode/AddChar (the index.Service path).
func NewGraph() *Graph {
	return &Graph{
		Nodes: make(map[util.ID]*Node),
		Edges: make(map[[2]util.ID]*Edge),
	}
}

// EnsureNode upserts one document node (renames update the name in place).
func (g *Graph) EnsureNode(doc util.ID, name string, external bool) {
	if n := g.Nodes[doc]; n != nil {
		n.Name = name
		n.External = external
		return
	}
	g.Nodes[doc] = &Node{Doc: doc, Name: name, External: external}
}

// AddChar folds one pasted character instance into the graph: the same
// aggregation Build performs per chars-table row, applied edge-by-edge as
// insert events arrive. It reports whether a new src→dst edge appeared
// (the citation count for src just grew). Self and nil sources are
// ignored, mirroring Build.
func (g *Graph) AddChar(src, dst util.ID, at time.Time) (newEdge bool) {
	if src.IsNil() || src == dst {
		return false
	}
	key := [2]util.ID{src, dst}
	e := g.Edges[key]
	if e == nil {
		e = &Edge{From: src, To: dst, FirstAt: at, LastAt: at, Chars: 1}
		g.Edges[key] = e
		return true
	}
	e.Chars++
	if at.Before(e.FirstAt) {
		e.FirstAt = at
	}
	if at.After(e.LastAt) {
		e.LastAt = at
	}
	return false
}

// Build scans the character store and assembles the provenance graph. It
// is the reference oracle: the scan is O(every character instance in the
// store), index.Service maintains the same graph in O(ops) from the
// awareness stream, and TestDeltaFoldMatchesRebuild and
// TestServiceMatchesRebuild check the folded graph against this scan.
func Build(eng *core.Engine) (*Graph, error) {
	g := &Graph{
		Nodes: make(map[util.ID]*Node),
		Edges: make(map[[2]util.ID]*Edge),
		eng:   eng,
	}
	docs, err := eng.ListDocuments()
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		g.Nodes[d.ID] = &Node{Doc: d.ID, Name: d.Name}
	}
	exts, err := eng.ExternalSources()
	if err != nil {
		return nil, err
	}
	for _, d := range exts {
		g.Nodes[d.ID] = &Node{Doc: d.ID, Name: d.Name, External: true}
	}
	err = eng.ScanCharMeta(func(doc util.ID, m core.CharMeta) bool {
		if m.SourceDoc.IsNil() || m.SourceDoc == doc {
			return true
		}
		key := [2]util.ID{m.SourceDoc, doc}
		e := g.Edges[key]
		if e == nil {
			e = &Edge{From: m.SourceDoc, To: doc, FirstAt: m.Created, LastAt: m.Created}
			g.Edges[key] = e
		}
		e.Chars++
		if m.Created.Before(e.FirstAt) {
			e.FirstAt = m.Created
		}
		if m.Created.After(e.LastAt) {
			e.LastAt = m.Created
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Sources returns the direct provenance edges into doc, largest first.
func (g *Graph) Sources(doc util.ID) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.To == doc {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Chars > out[j].Chars })
	return out
}

// derived returns the direct edges out of doc (documents that pasted from
// it), largest first.
func (g *Graph) derived(doc util.ID) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.From == doc {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Chars > out[j].Chars })
	return out
}

// CitationCount returns how many distinct documents pasted from doc — the
// "most cited" ranking signal for search.
func (g *Graph) CitationCount(doc util.ID) int {
	n := 0
	for _, e := range g.Edges {
		if e.From == doc {
			n++
		}
	}
	return n
}

// TransitiveSources returns every document reachable backwards from doc
// through paste edges (the full ancestry), sorted by ID.
func (g *Graph) TransitiveSources(doc util.ID) []util.ID {
	seen := map[util.ID]bool{}
	var visit func(d util.ID)
	visit = func(d util.ID) {
		for _, e := range g.Edges {
			if e.To == d && !seen[e.From] {
				seen[e.From] = true
				visit(e.From)
			}
		}
	}
	visit(doc)
	out := make([]util.ID, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckAcyclic verifies that paste edges respect time order (a paste can
// only copy from content that already existed), which implies the graph of
// first-paste times has no cycle ignoring mutual exchange over time.
func (g *Graph) CheckAcyclic() error {
	// Kahn's algorithm over edges ordered by FirstAt: a cycle in which every
	// edge predates the next is impossible; we verify the stronger property
	// that the graph restricted to "A→B entirely before any B→A" is a DAG.
	indeg := map[util.ID]int{}
	adj := map[util.ID][]util.ID{}
	for key, e := range g.Edges {
		rev, hasRev := g.Edges[[2]util.ID{key[1], key[0]}]
		if hasRev && !e.LastAt.Before(rev.FirstAt) && !rev.LastAt.Before(e.FirstAt) {
			// Interleaved mutual exchange: legitimate, skip the pair.
			continue
		}
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
		if _, ok := indeg[e.From]; !ok {
			indeg[e.From] = 0
		}
	}
	queue := make([]util.ID, 0, len(indeg))
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, n)
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		visited++
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if visited != len(indeg) {
		return fmt.Errorf("lineage: provenance graph has a time-respecting cycle (%d of %d nodes ordered)", visited, len(indeg))
	}
	return nil
}

// SourceRef summarises the provenance of one contiguous pasted fragment.
type SourceRef struct {
	SrcDoc  util.ID
	SrcName string
	Chars   int
	From    int // visible position range in the target document
	To      int
}

// ProvenanceOfRange explains where the visible range [pos, pos+n) of a
// document came from: maximal runs of characters sharing a source.
func ProvenanceOfRange(eng *core.Engine, doc util.ID, pos, n int) ([]SourceRef, error) {
	d, err := eng.OpenDocument(doc)
	if err != nil {
		return nil, err
	}
	metas, err := d.RangeMeta(pos, n)
	if err != nil {
		return nil, err
	}
	var out []SourceRef
	for i := 0; i < len(metas); {
		j := i
		for j < len(metas) && metas[j].SourceDoc == metas[i].SourceDoc {
			j++
		}
		ref := SourceRef{SrcDoc: metas[i].SourceDoc, Chars: j - i, From: pos + i, To: pos + j}
		if !ref.SrcDoc.IsNil() {
			if info, err := eng.DocInfoByID(ref.SrcDoc); err == nil {
				ref.SrcName = info.Name
			}
		}
		out = append(out, ref)
		i = j
	}
	return out, nil
}

// provenanceChain follows a character's source links transitively: the
// full pedigree of one character instance, nearest origin first.
func provenanceChain(eng *core.Engine, charID util.ID) ([]core.CharMeta, error) {
	var out []core.CharMeta
	seen := map[util.ID]bool{}
	cur := charID
	for !cur.IsNil() && !seen[cur] {
		seen[cur] = true
		_, meta, err := eng.CharByID(cur)
		if err != nil {
			break
		}
		out = append(out, meta)
		cur = meta.SourceChar
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lineage: char %v not found", charID)
	}
	return out[1:], nil // exclude the char itself; ancestors only
}

// DOT renders the graph in Graphviz format — the regenerable form of the
// paper's Figure 1.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph lineage {\n")
	sb.WriteString("  rankdir=LR;\n  node [shape=box, style=rounded];\n")
	ids := make([]util.ID, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Nodes[id]
		attrs := ""
		if n.External {
			attrs = ", shape=ellipse, style=dashed"
		}
		fmt.Fprintf(&sb, "  %q [label=%q%s];\n", n.Doc.String(), n.Name, attrs)
	}
	keys := make([][2]util.ID, 0, len(g.Edges))
	for k := range g.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		e := g.Edges[k]
		fmt.Fprintf(&sb, "  %q -> %q [label=\"%d chars\"];\n",
			e.From.String(), e.To.String(), e.Chars)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Render writes a plain-text summary of the graph (one line per edge).
func (g *Graph) Render() string {
	var sb strings.Builder
	keys := make([][2]util.ID, 0, len(g.Edges))
	for k := range g.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := g.Edges[keys[i]], g.Edges[keys[j]]
		if a.Chars != b.Chars {
			return a.Chars > b.Chars
		}
		return keys[i][0] < keys[j][0]
	})
	for _, k := range keys {
		e := g.Edges[k]
		from, to := "?", "?"
		if n := g.Nodes[e.From]; n != nil {
			from = n.Name
			if n.External {
				from = "[ext] " + from
			}
		}
		if n := g.Nodes[e.To]; n != nil {
			to = n.Name
		}
		fmt.Fprintf(&sb, "%-30s -> %-30s %6d chars\n", from, to, e.Chars)
	}
	return sb.String()
}
