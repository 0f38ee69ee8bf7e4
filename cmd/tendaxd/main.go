// Command tendaxd is the TeNDaX server daemon: it hosts one TeNDaX
// database — as one engine or several independent engine shards — and
// serves editor connections over TCP.
//
// Usage:
//
//	tendaxd -addr :7468 -data /var/lib/tendax [-shards 4] [-auth] [-pprof 127.0.0.1:7469]
//
// With -auth, clients must present credentials of users created via the
// security tables; without it any user name is accepted (the trusted
// LAN-party demo configuration). An empty -data runs fully in memory.
//
// -shards N runs N independent engine shards, each with its own
// write-ahead log, group-commit pipeline, checkpointer and compactor,
// under <data>/shard-<i>; documents are placed onto shards by ID, so
// every shard recovers independently on restart. N must stay constant
// for the life of a data directory (the ID residue classes encode it).
// The default 1 keeps the flat single-engine layout.
//
// -pprof starts a debug HTTP listener exposing the standard net/http/pprof
// profiles under /debug/pprof/ and the server's hot-path counters
// (batches/s, wire bytes in/out, allocations per committed batch, plus
// per-shard and per-user-throttle breakdowns) as JSON under /metrics.
// Bind it to loopback; it is unauthenticated by design.
package main

import (
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tendax/internal/db"
	"tendax/internal/placement"
	"tendax/internal/security"
	"tendax/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7468", "listen address")
	data := flag.String("data", "", "data directory (empty = in-memory)")
	shards := flag.Int("shards", 1,
		"engine shards in this process (each with its own WAL and commit pipeline); must stay constant per data directory")
	auth := flag.Bool("auth", false, "require authentication")
	seedUser := flag.String("seed-user", "", "create an initial user (name:password)")
	ckptEvery := flag.Duration("checkpoint-interval", 30*time.Second,
		"fuzzy checkpoint interval per shard (0 disables the timer trigger)")
	ckptBytes := flag.Int64("checkpoint-log-bytes", 64<<20,
		"fuzzy checkpoint when a shard's WAL exceeds this many bytes (0 disables)")
	compactEvery := flag.Duration("compact-interval", 5*time.Minute,
		"tombstone compaction interval (0 disables the background compactors)")
	compactRetention := flag.Duration("compact-retention", time.Hour,
		"tombstones deleted more than this long ago are archived out of the hot structures")
	opRing := flag.Int("op-ring", 0,
		"per-document op-ring retention: how far a subscriber may fall behind before it resyncs, and the delta-resync window (0 = default 1024 events)")
	rateLimit := flag.Float64("rate-limit", 0,
		"edit batches per second allowed per connection before a typed throttle (0 = unlimited)")
	subRateLimit := flag.Float64("sub-rate-limit", 0,
		"subscribe operations per second allowed per connection (0 = unlimited)")
	enableIndex := flag.Bool("index", true,
		"run the incremental search/lineage indexers (the query op answers from them)")
	pprofAddr := flag.String("pprof", "",
		"debug HTTP listen address for /debug/pprof/ and /metrics (empty = disabled)")
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("tendaxd: -shards must be >= 1 (got %d)", *shards)
	}
	cl, err := placement.Open(placement.Options{
		Shards: *shards,
		Dir:    *data,
		DB: db.Options{
			CheckpointInterval: *ckptEvery,
			CheckpointLogBytes: *ckptBytes,
		},
	})
	if err != nil {
		log.Fatalf("tendaxd: open shards: %v", err)
	}
	defer cl.Close()

	cl.StartCompactors(*compactEvery, *compactRetention)
	if *opRing > 0 {
		cl.SetRetention(*opRing)
	}
	defer func() {
		if err := cl.StopCompactors(); err != nil {
			log.Printf("tendaxd: background compaction: %v", err)
		}
	}()
	var sec *security.Store
	if *auth {
		// Users, roles and ACLs live on the metadata shard (shard 0); the
		// router resolves per-document lookups to the owning shard.
		sec, err = security.NewStore(cl.Meta())
		if err != nil {
			log.Fatalf("tendaxd: security: %v", err)
		}
		sec.SetRouter(cl)
		cl.SetAccessChecker(sec)
		if *seedUser != "" {
			name, pw := splitColon(*seedUser)
			if err := sec.CreateUser(name, pw); err != nil {
				log.Printf("tendaxd: seed user: %v", err)
			}
		}
	}

	if *enableIndex {
		if err := cl.StartIndexers(); err != nil {
			log.Fatalf("tendaxd: indexers: %v", err)
		}
	}

	srv := server.NewCluster(cl, sec)
	if *rateLimit > 0 || *subRateLimit > 0 {
		srv.SetRateLimit(*rateLimit, *subRateLimit)
	}
	if *pprofAddr != "" {
		// A dedicated mux rather than http.DefaultServeMux, so nothing an
		// imported package registers globally leaks onto the debug port.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", srv.Metrics().Handler())
		go func() {
			log.Printf("tendaxd: debug endpoint on http://%s/debug/pprof/ (+/metrics)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("tendaxd: debug endpoint: %v", err)
			}
		}()
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("tendaxd: listen: %v", err)
	}
	cl.Each(func(sh *placement.Shard) {
		log.Printf("tendaxd: shard %d recovered (dir=%q, %d winners, %d losers)",
			sh.Index, sh.Dir, sh.DB.Recovery.Winners, sh.DB.Recovery.Losers)
	})
	log.Printf("tendaxd: serving on %s (data=%q shards=%d auth=%v)",
		bound, *data, cl.Shards(), *auth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("tendaxd: shutting down")
		_ = srv.Close()
	}()
	if err := srv.Serve(); err != nil {
		log.Fatalf("tendaxd: serve: %v", err)
	}
}

func splitColon(s string) (string, string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}
