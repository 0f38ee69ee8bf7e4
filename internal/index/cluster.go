package index

import (
	"sort"

	"tendax/internal/core"
	"tendax/internal/lineage"
	"tendax/internal/search"
	"tendax/internal/util"
)

// Cluster fans one query out over per-shard Services and merges the
// ranked results: the multi-shard face of the incremental index. Document
// and character IDs are strided across shards, so point lookups
// (Provenance, Chain) route straight to the owning shard's service.
type Cluster struct {
	svcs  []*Service
	route func(util.ID) int
}

// OpenCluster opens one Service per engine. route maps any ID minted by a
// shard back to that shard's position in engines (placement.ShardFor);
// nil means a single shard.
func OpenCluster(engines []*core.Engine, route func(util.ID) int) (*Cluster, error) {
	if route == nil {
		route = func(util.ID) int { return 0 }
	}
	c := &Cluster{route: route}
	for _, eng := range engines {
		svc, err := Open(eng)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.svcs = append(c.svcs, svc)
	}
	return c, nil
}

// Shard returns the per-shard service at position i.
func (c *Cluster) Shard(i int) *Service { return c.svcs[i] }

// Query fans out to every shard and merges under the requested ranking.
// Relevance scores are BM25 over shard-local collection statistics (df
// and average length are per-shard); citation counts are summed across
// shards before ranking, since a document's citers may live anywhere.
func (c *Cluster) Query(q search.Query) ([]search.Result, error) {
	if len(c.svcs) == 1 {
		return c.svcs[0].Query(q)
	}
	rank := q.Rank
	if rank == "" {
		rank = search.ByRelevance
	}
	shardQ := q
	shardQ.Limit = 0
	if rank == search.ByMostCited {
		// Shard-local citation scores are meaningless; collect candidates
		// by relevance and score them globally below.
		shardQ.Rank = search.ByRelevance
	}
	var all []search.Result
	for _, svc := range c.svcs {
		rs, err := svc.Query(shardQ)
		if err != nil {
			return nil, err
		}
		all = append(all, rs...)
	}
	switch rank {
	case search.ByNewest:
		sort.Slice(all, func(i, j int) bool {
			if !all[i].Doc.Modified.Equal(all[j].Doc.Modified) {
				return all[i].Doc.Modified.After(all[j].Doc.Modified)
			}
			return all[i].Doc.ID < all[j].Doc.ID
		})
	case search.ByMostCited:
		for i := range all {
			all[i].Score = float64(c.CitationCount(all[i].Doc.ID))
		}
		fallthrough
	default: // relevance, most-cited (rescored above), most-read
		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].Doc.ID < all[j].Doc.ID
		})
	}
	if q.Limit > 0 && len(all) > q.Limit {
		all = all[:q.Limit]
	}
	return all, nil
}

// Provenance routes to the shard owning doc.
func (c *Cluster) Provenance(doc util.ID, pos, n int) ([]lineage.SourceRef, error) {
	refs, err := c.svcs[c.route(doc)].Provenance(doc, pos, n)
	if err != nil {
		return nil, err
	}
	// Source documents may live on other shards, where the owning
	// service cannot resolve their names; fill them in cluster-wide.
	for i := range refs {
		if refs[i].SrcName != "" || refs[i].SrcDoc.IsNil() {
			continue
		}
		src := refs[i].SrcDoc
		if info, err := c.svcs[c.route(src)].eng.DocInfoByID(src); err == nil {
			refs[i].SrcName = info.Name
		}
	}
	return refs, nil
}

// Chain routes to the shard that minted the character instance.
func (c *Cluster) Chain(charID util.ID) ([]core.CharMeta, error) {
	return c.svcs[c.route(charID)].Chain(charID)
}

// CitationCount sums the distinct citing documents across all shards.
func (c *Cluster) CitationCount(doc util.ID) int {
	n := 0
	for _, svc := range c.svcs {
		n += svc.CitationCount(doc)
	}
	return n
}

// Graph merges every shard's provenance graph into one copy. Edge keys
// are (src, dst) with dst owned by exactly one shard, and each shard only
// holds nodes for its own documents, so the merge is a disjoint union.
func (c *Cluster) Graph() *lineage.Graph {
	g := lineage.NewGraph()
	for _, svc := range c.svcs {
		part := svc.Graph()
		for id, n := range part.Nodes {
			g.Nodes[id] = n
		}
		for k, e := range part.Edges {
			g.Edges[k] = e
		}
	}
	return g
}

// Sync quiesces every shard's indexer (tests, benchmarks).
func (c *Cluster) Sync() {
	for _, svc := range c.svcs {
		svc.Sync()
	}
}

// Stats sums indexer progress across shards.
func (c *Cluster) Stats() Stats {
	var out Stats
	for _, svc := range c.svcs {
		st := svc.Stats()
		out.Docs += st.Docs
		out.Applied += st.Applied
		out.Heals += st.Heals
		out.Lag += st.Lag
		out.Delta += st.Delta
		out.Full.Prime += st.Full.Prime
		out.Full.RingMiss += st.Full.RingMiss
		out.Full.SeqAhead += st.Full.SeqAhead
	}
	return out
}

// Close detaches every shard's indexer.
func (c *Cluster) Close() {
	for _, svc := range c.svcs {
		if svc != nil {
			svc.Close()
		}
	}
}
