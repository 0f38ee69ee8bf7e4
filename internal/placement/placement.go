// Package placement owns the first phase of clustered tendaxd: N
// independent core.Engine shards inside one process, each with its own
// database, write-ahead log, group-commit pipeline, checkpointer and
// compactor, behind a deterministic document→shard mapping.
//
// Placement is by ID arithmetic, not by table: shard i of N mints document
// IDs only from the residue class i+1 mod N (util.IDGen.SetStride), so
// ShardFor(id) = (id-1) mod N recovers the owning shard from the ID alone.
// Nothing is looked up, nothing can disagree after a crash, and IDs minted
// by different shards can never collide — which keeps cross-shard lineage
// references (copy/paste provenance) unambiguous.
//
// The cluster exposes the same engine-level surface the server already
// programs against (create/open/find/list, access checker, awareness), so
// the wire protocol needs no changes: the server resolves a
// document's engine per request and everything below that seam is
// per-shard. The future multi-node phase replaces ShardFor's arithmetic
// with a directory lookup and this package's fan-outs with RPCs; the seam
// stays.
package placement

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/index"
	"tendax/internal/util"
)

// Options configures a cluster.
type Options struct {
	// Shards is the number of engine shards; values < 1 mean 1.
	Shards int
	// Dir is the base data directory. With one shard the database lives
	// directly in Dir (the pre-sharding flat layout, so existing data
	// directories keep working); with N > 1 shard i lives in
	// Dir/shard-<i>. Empty means fully in-memory shards.
	Dir string
	// DB is the per-shard database option template; its Dir field is
	// overridden per shard. Group commit, checkpointing and pool sizing
	// apply to every shard independently.
	DB db.Options
	// Clock is shared by all shards. Nil means the system clock.
	Clock util.Clock
}

// Shard is one engine plus its backing database.
type Shard struct {
	Index  int
	Dir    string // "" for in-memory
	DB     *db.Database
	Engine *core.Engine
}

// Cluster is a set of engine shards with deterministic document placement.
type Cluster struct {
	shards []*Shard
	next   atomic.Uint64 // round-robin cursor for CreateDocument

	// Incremental query subsystem (StartIndexers): one index.Service per
	// shard plus the cross-shard fan-out/merge handle.
	idx atomic.Pointer[index.Cluster]
}

// Open opens (creating directories and schemas as needed) every shard.
// Recovery runs per shard on open; per-shard outcomes are on
// Shard(i).DB.Recovery.
func Open(opts Options) (*Cluster, error) {
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	c := &Cluster{shards: make([]*Shard, 0, n)}
	for i := 0; i < n; i++ {
		dir := opts.Dir
		if dir != "" && n > 1 {
			dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		}
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				c.Close()
				return nil, err
			}
		}
		dbo := opts.DB
		dbo.Dir = dir
		database, err := db.Open(dbo)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("placement: shard %d: %w", i, err)
		}
		eng, err := core.NewEngineShard(database, opts.Clock, i, n)
		if err != nil {
			database.Close()
			c.Close()
			return nil, fmt.Errorf("placement: shard %d: %w", i, err)
		}
		c.shards = append(c.shards, &Shard{Index: i, Dir: dir, DB: database, Engine: eng})
	}
	return c, nil
}

// Wrap adapts a single pre-existing engine (tests, embedded use) into a
// one-shard cluster. Close on a wrapped cluster is a no-op: the caller
// owns the engine's database.
func Wrap(eng *core.Engine) *Cluster {
	return &Cluster{shards: []*Shard{{Index: 0, Engine: eng}}}
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// ShardFor maps a document ID to its owning shard index.
func (c *Cluster) ShardFor(doc util.ID) int {
	if doc == util.NilID {
		return 0
	}
	return int((uint64(doc) - 1) % uint64(len(c.shards)))
}

// EngineFor returns the engine owning doc.
func (c *Cluster) EngineFor(doc util.ID) *core.Engine {
	return c.shards[c.ShardFor(doc)].Engine
}

// BusFor returns the awareness bus of the shard owning doc.
func (c *Cluster) BusFor(doc util.ID) *awareness.Bus {
	return c.EngineFor(doc).Bus()
}

// Meta returns the metadata shard (shard 0), which hosts cluster-global
// tables such as the security store's users/roles/ACLs.
func (c *Cluster) Meta() *core.Engine { return c.shards[0].Engine }

// Clock returns the shared clock.
func (c *Cluster) Clock() util.Clock { return c.shards[0].Engine.Clock() }

// CreateDocument places a new document on the next shard round-robin. The
// shard's strided ID generator guarantees ShardFor(doc.ID()) equals the
// chosen shard forever after.
func (c *Cluster) CreateDocument(user, name string) (*core.Document, error) {
	i := int((c.next.Add(1) - 1) % uint64(len(c.shards)))
	return c.shards[i].Engine.CreateDocument(user, name)
}

// OpenDocument routes to the owning shard by ID arithmetic.
func (c *Cluster) OpenDocument(id util.ID) (*core.Document, error) {
	return c.EngineFor(id).OpenDocument(id)
}

// FindDocument resolves a document by name across all shards (first match
// in shard order).
func (c *Cluster) FindDocument(name string) (*core.Document, error) {
	for _, s := range c.shards {
		d, err := s.Engine.FindDocument(name)
		if err == nil {
			return d, nil
		}
		if !errors.Is(err, core.ErrDocNotFound) {
			return nil, err
		}
	}
	return nil, core.ErrDocNotFound
}

// DocInfoByID routes to the owning shard.
func (c *Cluster) DocInfoByID(id util.ID) (core.DocInfo, error) {
	return c.EngineFor(id).DocInfoByID(id)
}

// ListDocuments merges every shard's listing, ordered by document ID so
// the result is stable regardless of shard count.
func (c *Cluster) ListDocuments() ([]core.DocInfo, error) {
	var out []core.DocInfo
	for _, s := range c.shards {
		infos, err := s.Engine.ListDocuments()
		if err != nil {
			return nil, err
		}
		out = append(out, infos...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// SetAccessChecker installs the security hook on every shard.
func (c *Cluster) SetAccessChecker(ch core.AccessChecker) {
	for _, s := range c.shards {
		s.Engine.SetAccessChecker(ch)
	}
}

// SetRetention sizes every shard's awareness op ring, the one bound on
// how far a subscriber may fall behind.
func (c *Cluster) SetRetention(n int) {
	for _, s := range c.shards {
		s.Engine.Bus().SetRetention(n)
	}
}

// StartCompactors starts one background tombstone compactor per shard.
func (c *Cluster) StartCompactors(interval, retention time.Duration) {
	for _, s := range c.shards {
		s.Engine.StartCompactor(interval, retention)
	}
}

// StopCompactors stops all compactors, joining any errors.
func (c *Cluster) StopCompactors() error {
	var errs []error
	for _, s := range c.shards {
		if err := s.Engine.StopCompactor(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s.Index, err))
		}
	}
	return errors.Join(errs...)
}

// Checkpoint takes a fuzzy checkpoint on every shard.
func (c *Cluster) Checkpoint() error {
	var errs []error
	for _, s := range c.shards {
		if _, err := s.Engine.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s.Index, err))
		}
	}
	return errors.Join(errs...)
}

// Each calls fn for every shard in index order.
func (c *Cluster) Each(fn func(s *Shard)) {
	for _, s := range c.shards {
		fn(s)
	}
}

// StartIndexers opens one incremental index.Service per shard and the
// fan-out/merge handle over them: the cluster's live query subsystem.
// Call after Open (recovery done) and before serving queries.
func (c *Cluster) StartIndexers() error {
	if c.idx.Load() != nil {
		return nil
	}
	engines := make([]*core.Engine, len(c.shards))
	for i, s := range c.shards {
		engines[i] = s.Engine
	}
	ic, err := index.OpenCluster(engines, c.ShardFor)
	if err != nil {
		return err
	}
	c.idx.Store(ic)
	return nil
}

// Index returns the incremental query handle, or nil when StartIndexers
// has not run (the server then answers queries with a typed error).
func (c *Cluster) Index() *index.Cluster { return c.idx.Load() }

// Close closes every shard's database (skipping wrapped engines, whose
// databases the caller owns), joining any errors.
func (c *Cluster) Close() error {
	if ic := c.idx.Swap(nil); ic != nil {
		ic.Close()
	}
	var errs []error
	for _, s := range c.shards {
		if s.DB == nil {
			continue
		}
		if err := s.DB.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s.Index, err))
		}
	}
	return errors.Join(errs...)
}
