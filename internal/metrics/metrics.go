// Package metrics holds the daemon's hot-path counters: cheap atomic
// increments on the serving paths, aggregated and derived only at scrape
// time by the -pprof debug endpoint. The commit path pays a handful of
// uncontended atomic adds per batch — never a lock, never an allocation.
package metrics

import (
	"encoding/json"
	"net/http"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the daemon-wide counter set. All fields are monotonic except
// Conns and QueueDepth (gauges). Increment them directly; they are safe
// from any goroutine.
type Metrics struct {
	Batches    Counter // edit batches committed (a v1 single-op edit is a batch of one)
	Ops        Counter // ops inside those batches
	Keystrokes Counter // characters inserted by those batches
	Pushes     Counter // awareness frames pushed to subscribers
	BytesIn    Counter // wire bytes received, framed
	BytesOut   Counter // wire bytes sent, framed
	Conns      Counter // currently connected editors (gauge)
	Sheds      Counter // events subscribers skipped because the op ring had evicted them
	Throttles  Counter // requests rejected by the rate limiter
	QueueDepth Counter // events not yet read, summed over every open subscription's cursor (gauge)
	Heals      Counter // ring-miss recoveries: gaps answered with a lagged push
	Queries    Counter // OpQuery requests served (search + provenance)

	// shards holds per-engine-shard commit counters when the process
	// runs more than one shard (EnableShards). Nil in single-shard mode,
	// keeping the scrape output unchanged.
	shards []ShardCounters

	// userThrottles, when set, supplies per-user rate-limit rejection
	// counts at scrape time (the buckets live in the server's limiter;
	// metrics only renders them).
	userThrottles func() []UserThrottle

	// indexStats, when set, supplies the incremental indexer's progress
	// counters at scrape time (applied ops, freshness lag, gap heals);
	// ok=false while the indexers are not running.
	indexStats func() (IndexStats, bool)

	// logFailed, when set, reports at scrape time whether a failed write
	// or sync has poisoned a write-ahead log, leaving its engine read-only
	// until restart.
	logFailed func() bool

	mu          sync.Mutex
	start       time.Time
	lastScrape  time.Time
	lastAllocs  uint64
	lastBatches int64
}

// ShardCounters is one engine shard's slice of the commit counters.
type ShardCounters struct {
	Batches    Counter
	Ops        Counter
	Keystrokes Counter
}

// UserThrottle is one user's rate-limit rejection tally, surfaced so an
// operator can tell WHICH tenant the limiter is pushing back on — the
// aggregate Throttles counter only says that someone is.
type UserThrottle struct {
	User        string `json:"user"`
	EditRejects int64  `json:"edit_rejects"`
	SubRejects  int64  `json:"sub_rejects"`
}

// EnableShards sizes the per-shard counter set. Call once at startup,
// before any traffic; n < 2 leaves per-shard accounting off.
func (m *Metrics) EnableShards(n int) {
	if n >= 2 {
		m.shards = make([]ShardCounters, n)
	}
}

// Shard returns shard i's counters, or nil when per-shard accounting is
// off (single-shard processes pay zero extra atomics).
func (m *Metrics) Shard(i int) *ShardCounters {
	if m.shards == nil || i < 0 || i >= len(m.shards) {
		return nil
	}
	return &m.shards[i]
}

// SetUserThrottles installs the per-user rejection snapshot source.
func (m *Metrics) SetUserThrottles(fn func() []UserThrottle) {
	m.userThrottles = fn
}

// IndexStats is the incremental indexer's scrape-time progress view.
type IndexStats struct {
	Docs       int   `json:"docs"`
	AppliedOps int64 `json:"applied_ops"`
	Heals      int64 `json:"heals"` // ring-miss recoveries, one per FullRefreshes.RingMiss
	LagDocs    int   `json:"lag_docs"`
	// DeltaRefreshes counts refreshes that re-tokenized only what an edit
	// changed; FullRefreshes the wholesale fallbacks, by cause. A cause
	// other than prime climbing with the edit rate means typing has
	// fallen off the O(edit) path.
	DeltaRefreshes int64              `json:"delta_refreshes"`
	FullRefreshes  IndexFullRefreshes `json:"full_refreshes"`
	// LagEvents counts the events published but not yet folded, summed
	// over every document's cursor; Shards breaks the lag down by shard.
	LagEvents int               `json:"lag_events"`
	Shards    []IndexShardStats `json:"shards,omitempty"`
}

// IndexShardStats is one shard's indexer progress and lag: how far behind
// the indexer of that shard is, which the totals hide.
type IndexShardStats struct {
	Shard      int   `json:"shard"`
	Docs       int   `json:"docs"`
	AppliedOps int64 `json:"applied_ops"`
	LagDocs    int   `json:"lag_docs"`
	LagEvents  int   `json:"lag_events"`
}

// IndexFullRefreshes breaks the indexer's wholesale document re-indexes
// down by what forced them (index.FullRefreshes, field for field).
type IndexFullRefreshes struct {
	Prime    int64 `json:"prime"`
	RingMiss int64 `json:"ring_miss"`
	SeqAhead int64 `json:"seq_ahead"`
}

// SetIndexStats installs the indexer progress source; fn reporting
// ok=false (indexers not started) keeps the scrape output unchanged.
func (m *Metrics) SetIndexStats(fn func() (IndexStats, bool)) {
	m.indexStats = fn
}

// SetLogFailed installs the poisoned-log probe behind the log_failed gauge.
func (m *Metrics) SetLogFailed(fn func() bool) {
	m.logFailed = fn
}

// Counter is an alias for atomic.Int64 so the protocol layer can take
// *atomic.Int64 counters without importing this package.
type Counter = atomic.Int64

// New returns a zeroed metric set.
func New() *Metrics {
	now := time.Now()
	return &Metrics{start: now, lastScrape: now, lastAllocs: heapAllocObjects()}
}

var allocSampleName = "/gc/heap/allocs:objects"

func heapAllocObjects() uint64 {
	s := []rtmetrics.Sample{{Name: allocSampleName}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// snapshot is the scrape wire format.
type snapshot struct {
	UptimeSec  float64 `json:"uptime_sec"`
	Batches    int64   `json:"batches"`
	Ops        int64   `json:"ops"`
	Keystrokes int64   `json:"keystrokes"`
	Pushes     int64   `json:"pushes"`
	BytesIn    int64   `json:"bytes_in"`
	BytesOut   int64   `json:"bytes_out"`
	Conns      int64   `json:"conns"`
	Sheds      int64   `json:"sheds"`
	Throttles  int64   `json:"throttles"`
	QueueDepth int64   `json:"queue_depth"`
	Heals      int64   `json:"heals"`
	Queries    int64   `json:"queries"`
	// LogFailed is 1 once a failed write or sync has poisoned a
	// write-ahead log: its engine refuses every edit until restart.
	LogFailed int `json:"log_failed"`

	// Derived over the window since the previous scrape.
	WindowSec       float64 `json:"window_sec"`
	BatchesPerSec   float64 `json:"batches_per_sec"`
	AllocsPerBatch  float64 `json:"allocs_per_batch"`
	WindowedBatches int64   `json:"windowed_batches"`

	// Multi-shard breakdown (absent in single-shard processes).
	Shards []shardSnapshot `json:"shards,omitempty"`
	// Per-user rate-limit rejections (absent without a rate limiter).
	UserThrottles []UserThrottle `json:"user_throttles,omitempty"`
	// Incremental indexer progress (absent while indexers are off).
	Index *IndexStats `json:"index,omitempty"`
}

type shardSnapshot struct {
	Shard      int   `json:"shard"`
	Batches    int64 `json:"batches"`
	Ops        int64 `json:"ops"`
	Keystrokes int64 `json:"keystrokes"`
}

// Handler serves the counters as JSON, plus two derived figures computed
// over the interval between scrapes: batches/s and heap allocations per
// committed batch (process-wide — scrape during a steady benchmark load
// for a meaningful number).
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		allocs := heapAllocObjects()
		batches := m.Batches.Load()

		m.mu.Lock()
		window := now.Sub(m.lastScrape)
		dAllocs := allocs - m.lastAllocs
		dBatches := batches - m.lastBatches
		m.lastScrape, m.lastAllocs, m.lastBatches = now, allocs, batches
		start := m.start
		m.mu.Unlock()

		snap := snapshot{
			UptimeSec:       now.Sub(start).Seconds(),
			Batches:         batches,
			Ops:             m.Ops.Load(),
			Keystrokes:      m.Keystrokes.Load(),
			Pushes:          m.Pushes.Load(),
			BytesIn:         m.BytesIn.Load(),
			BytesOut:        m.BytesOut.Load(),
			Conns:           m.Conns.Load(),
			Sheds:           m.Sheds.Load(),
			Throttles:       m.Throttles.Load(),
			QueueDepth:      m.QueueDepth.Load(),
			Heals:           m.Heals.Load(),
			Queries:         m.Queries.Load(),
			WindowSec:       window.Seconds(),
			WindowedBatches: dBatches,
		}
		if window > 0 {
			snap.BatchesPerSec = float64(dBatches) / window.Seconds()
		}
		if dBatches > 0 {
			snap.AllocsPerBatch = float64(dAllocs) / float64(dBatches)
		}
		for i := range m.shards {
			sc := &m.shards[i]
			snap.Shards = append(snap.Shards, shardSnapshot{
				Shard:      i,
				Batches:    sc.Batches.Load(),
				Ops:        sc.Ops.Load(),
				Keystrokes: sc.Keystrokes.Load(),
			})
		}
		if m.userThrottles != nil {
			snap.UserThrottles = m.userThrottles()
		}
		if m.logFailed != nil && m.logFailed() {
			snap.LogFailed = 1
		}
		if m.indexStats != nil {
			if ist, ok := m.indexStats(); ok {
				snap.Index = &ist
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
}
