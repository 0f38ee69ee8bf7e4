package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/folders"
	"tendax/internal/index"
	"tendax/internal/mining"
	"tendax/internal/placement"
	"tendax/internal/search"
	"tendax/internal/security"
	"tendax/internal/server"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
	"tendax/internal/workflow"
	"tendax/internal/workload"
)

func memEngine() (*core.Engine, *db.Database, error) {
	database, err := db.Open(db.Options{})
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		_ = database.Close()
		return nil, nil, err
	}
	return eng, database, nil
}

// E1: N concurrent editors over real TCP appending to one document.
// Reported: committed ops/s and end-to-end propagation latency (writer
// commit to observer replica).
func runE1(quick bool, _ string) error {
	editorCounts := []int{1, 2, 4, 8, 16}
	opsPer := 60
	if quick {
		editorCounts = []int{1, 2, 4}
		opsPer = 15
	}
	fmt.Printf("%-8s %12s %14s %14s\n", "editors", "ops/s", "commit p50", "propagate p95")
	for _, n := range editorCounts {
		eng, database, err := memEngine()
		if err != nil {
			return err
		}
		srv := server.New(eng, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve() }()

		host, err := client.Dial(addr.String())
		if err != nil {
			return err
		}
		if err := host.Login("host", ""); err != nil {
			return err
		}
		docID, err := host.CreateDocument("e1")
		if err != nil {
			return err
		}
		observer, err := host.Open(docID)
		if err != nil {
			return err
		}

		var commit workload.LatencyRecorder
		var cmu sync.Mutex
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := client.Dial(addr.String())
				if err != nil {
					errCh <- err
					return
				}
				defer c.Close()
				if err := c.Login(fmt.Sprintf("player%d", i), ""); err != nil {
					errCh <- err
					return
				}
				d, err := c.Open(docID)
				if err != nil {
					errCh <- err
					return
				}
				for j := 0; j < opsPer; j++ {
					t0 := time.Now()
					if err := d.Append(fmt.Sprintf("[%d:%d]", i, j)); err != nil {
						errCh <- err
						return
					}
					cmu.Lock()
					commit.Record(time.Since(t0))
					cmu.Unlock()
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		elapsed := time.Since(start)
		totalOps := n * opsPer

		// Propagation probe: a fresh writer appends once and we measure
		// how long until the observer's replica sequence advances. The
		// writer joins first so its join event is behind us.
		writer, err := client.Dial(addr.String())
		if err != nil {
			return err
		}
		if err := writer.Login("probe", ""); err != nil {
			return err
		}
		wd, err := writer.Open(docID)
		if err != nil {
			return err
		}
		if err := observer.Resync(); err != nil {
			return err
		}
		baseSeq := observer.Seq()
		t0 := time.Now()
		if err := wd.Append("~probe~"); err != nil {
			return err
		}
		prop := time.Duration(-1)
		for i := 0; i < 10000; i++ {
			if observer.Seq() > baseSeq {
				prop = time.Since(t0)
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		_ = writer.Close()

		fmt.Printf("%-8d %12.0f %14v %14v\n",
			n, float64(totalOps)/elapsed.Seconds(), commit.Percentile(50), prop)
		_ = host.Close()
		_ = srv.Close()
		if err := database.Close(); err != nil {
			return err
		}
	}
	fmt.Println("shape check: throughput grows then saturates with editors; propagation stays in the ms range.")
	return nil
}

// E2: single-character insert/delete transaction latency vs document size.
func runE2(quick bool, _ string) error {
	sizes := []int{1_000, 10_000, 100_000}
	samples := 400
	if quick {
		sizes = []int{1_000, 10_000}
		samples = 100
	}
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "doc size", "ins mean", "ins p99", "del mean", "del p99")
	for _, size := range sizes {
		eng, database, err := memEngine()
		if err != nil {
			return err
		}
		doc, err := eng.CreateDocument("typist", "e2")
		if err != nil {
			return err
		}
		rng := util.NewRand(7)
		for doc.Len() < size {
			chunk := size - doc.Len()
			if chunk > 512 {
				chunk = 512
			}
			if _, err := doc.AppendText("typist", rng.Letters(chunk)); err != nil {
				return err
			}
		}
		var ins, del workload.LatencyRecorder
		for i := 0; i < samples; i++ {
			pos := rng.Intn(doc.Len())
			t0 := time.Now()
			if _, err := doc.InsertText("typist", pos, "x"); err != nil {
				return err
			}
			ins.Record(time.Since(t0))
		}
		for i := 0; i < samples; i++ {
			pos := rng.Intn(doc.Len() - 1)
			t0 := time.Now()
			if _, err := doc.DeleteRange("typist", pos, 1); err != nil {
				return err
			}
			del.Record(time.Since(t0))
		}
		fmt.Printf("%-10d %12v %12v %12v %12v\n",
			size, ins.Mean(), ins.Percentile(99), del.Mean(), del.Percentile(99))
		if err := database.Close(); err != nil {
			return err
		}
	}
	fmt.Println("shape check: latency is near-flat in document size (O(log n) position index).")
	return nil
}

// E3: undo/redo latency, local and global, at increasing history depth.
func runE3(quick bool, _ string) error {
	depths := []int{50, 200, 1000}
	if quick {
		depths = []int{50, 200}
	}
	fmt.Printf("%-10s %12s %12s %14s\n", "history", "undo mean", "redo mean", "global undo")
	for _, depth := range depths {
		eng, database, err := memEngine()
		if err != nil {
			return err
		}
		doc, err := eng.CreateDocument("alice", "e3")
		if err != nil {
			return err
		}
		rng := util.NewRand(3)
		users := []string{"alice", "bob"}
		for i := 0; i < depth; i++ {
			user := users[i%2]
			if _, err := doc.AppendText(user, rng.Letters(6)); err != nil {
				return err
			}
		}
		steps := 30
		if steps > depth/2 {
			steps = depth / 2
		}
		var undo, redo, global workload.LatencyRecorder
		for i := 0; i < steps; i++ {
			t0 := time.Now()
			if _, err := doc.UndoLocal("alice"); err != nil {
				return err
			}
			undo.Record(time.Since(t0))
		}
		for i := 0; i < steps; i++ {
			t0 := time.Now()
			if _, err := doc.RedoLocal("alice"); err != nil {
				return err
			}
			redo.Record(time.Since(t0))
		}
		for i := 0; i < steps; i++ {
			t0 := time.Now()
			if _, err := doc.UndoGlobal("bob"); err != nil {
				return err
			}
			global.Record(time.Since(t0))
		}
		fmt.Printf("%-10d %12v %12v %14v\n", depth, undo.Mean(), redo.Mean(), global.Mean())
		if err := database.Close(); err != nil {
			return err
		}
	}
	fmt.Println("shape check: undo cost tracks history length only mildly; selective undo works at depth.")
	return nil
}

// E4: workflow task lifecycle throughput with dynamic re-routing.
func runE4(quick bool, _ string) error {
	cycles := 150
	if quick {
		cycles = 40
	}
	eng, database, err := memEngine()
	if err != nil {
		return err
	}
	defer database.Close()
	sec, err := security.NewStore(eng)
	if err != nil {
		return err
	}
	wf, err := workflow.NewStore(eng, sec)
	if err != nil {
		return err
	}
	sec.CreateUser("coord", "pw")
	sec.CreateUser("tina", "pw", "translator")
	sec.CreateUser("vera", "pw", "verifier")
	doc, err := eng.CreateDocument("coord", "e4")
	if err != nil {
		return err
	}
	if _, err := doc.AppendText("coord", "contract body"); err != nil {
		return err
	}

	var define, task, route, complete workload.LatencyRecorder
	t0all := time.Now()
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		p, err := wf.Define("coord", doc.ID(), fmt.Sprintf("proc-%d", i))
		if err != nil {
			return err
		}
		define.Record(time.Since(t0))

		t0 = time.Now()
		t1, err := wf.AddTask("coord", p.ID, "translate", "", "role:translator", util.NilID, util.NilID)
		if err != nil {
			return err
		}
		t2, err := wf.AddTask("coord", p.ID, "approve", "", "user:coord", util.NilID, util.NilID)
		if err != nil {
			return err
		}
		task.Record(time.Since(t0))

		t0 = time.Now()
		mid, err := wf.InsertTaskAfter("coord", p.ID, t1.ID, "verify", "", "role:verifier")
		if err != nil {
			return err
		}
		if err := wf.Reroute("coord", mid.ID, "user:vera"); err != nil {
			return err
		}
		route.Record(time.Since(t0))

		t0 = time.Now()
		for _, step := range []struct {
			user string
			id   util.ID
		}{{"tina", t1.ID}, {"vera", mid.ID}, {"coord", t2.ID}} {
			if err := wf.Accept(step.user, step.id); err != nil {
				return err
			}
			if err := wf.Complete(step.user, step.id, "ok"); err != nil {
				return err
			}
		}
		complete.Record(time.Since(t0))
	}
	elapsed := time.Since(t0all)
	fmt.Printf("%-22s %12s\n", "phase", "mean")
	fmt.Printf("%-22s %12v\n", "define process", define.Mean())
	fmt.Printf("%-22s %12v\n", "add 2 tasks", task.Mean())
	fmt.Printf("%-22s %12v\n", "dynamic insert+route", route.Mean())
	fmt.Printf("%-22s %12v\n", "run 3-task chain", complete.Mean())
	fmt.Printf("%d full processes in %v (%.0f processes/s)\n",
		cycles, elapsed.Round(time.Millisecond), float64(cycles)/elapsed.Seconds())
	fmt.Println("shape check: every phase is interactive (well under the demo's human timescales).")
	return nil
}

// E5: dynamic folder evaluation latency vs corpus size, plus freshness.
func runE5(quick bool, _ string) error {
	sizes := []int{100, 500, 2000}
	if quick {
		sizes = []int{50, 200}
	}
	fmt.Printf("%-10s %12s %12s %10s\n", "docs", "eval time", "freshness", "matches")
	for _, n := range sizes {
		eng, database, err := memEngine()
		if err != nil {
			return err
		}
		if _, err := workload.BuildCorpus(eng, workload.CorpusSpec{
			Docs: n, Users: 8, MeanSize: 120, ReadRatio: 0.5, StateSplit: 0.3, Seed: 11,
		}); err != nil {
			return err
		}
		fstore, err := folders.NewStore(eng)
		if err != nil {
			return err
		}
		folder, err := fstore.CreateDynamic("user0", "recent reads", folders.And{
			folders.ReadBy{User: "user0", Within: 7 * 24 * time.Hour},
			folders.StateIs{State: "draft"},
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		docs, err := fstore.Eval(folder)
		if err != nil {
			return err
		}
		evalTime := time.Since(t0)

		// Freshness: a brand-new read appears on the next evaluation.
		d, err := eng.CreateDocument("user0", "freshdoc")
		if err != nil {
			return err
		}
		if _, err := d.AppendText("user0", "fresh content"); err != nil {
			return err
		}
		before := len(docs)
		_, after, fresh, err := fstore.Freshness(folder, func() error {
			_, err := d.RecordRead("user0")
			return err
		})
		if err != nil {
			return err
		}
		if len(after) != before+1 {
			return fmt.Errorf("freshness violated: %d -> %d", before, len(after))
		}
		fmt.Printf("%-10d %12v %12v %10d\n", n, evalTime, fresh, len(docs))
		if err := database.Close(); err != nil {
			return err
		}
	}
	fmt.Println("shape check: evaluation is linear in corpus size and sub-second at demo scale;")
	fmt.Println("             a committed change is visible on the very next evaluation.")
	return nil
}

// E6: data lineage (Figure 1) — build the provenance graph of a synthetic
// copy-paste tree, verify it matches the generated edges exactly, write DOT.
func runE6(quick bool, out string) error {
	depth, fanout := 4, 3
	if quick {
		depth, fanout = 3, 2
	}
	eng, database, err := memEngine()
	if err != nil {
		return err
	}
	defer database.Close()
	docs, wantEdges, err := workload.BuildPasteChains(eng, workload.PasteChainSpec{
		Depth: depth, FanOut: fanout, ChunkLen: 32, Externals: 3, Seed: 99,
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	svc, err := index.Open(eng)
	if err != nil {
		return err
	}
	g := svc.Graph()
	build := time.Since(t0)
	defer svc.Close()
	if len(g.Edges) != wantEdges {
		return fmt.Errorf("edge count %d != generated %d", len(g.Edges), wantEdges)
	}
	if err := g.CheckAcyclic(); err != nil {
		return err
	}
	fmt.Printf("%-22s %12s\n", "metric", "value")
	fmt.Printf("%-22s %12d\n", "documents", len(docs))
	fmt.Printf("%-22s %12d\n", "external sources", 3)
	fmt.Printf("%-22s %12d\n", "paste edges", len(g.Edges))
	fmt.Printf("%-22s %12d\n", "root citations", g.CitationCount(docs[0].ID()))
	fmt.Printf("%-22s %12v\n", "graph build time", build)
	leaf := docs[len(docs)-1]
	fmt.Printf("%-22s %12d\n", "leaf ancestry depth", len(g.TransitiveSources(leaf.ID())))
	if out != "" {
		if err := os.WriteFile(out, []byte(g.DOT()), 0o644); err != nil {
			return err
		}
		fmt.Printf("Figure 1 graph written to %s (%d bytes of DOT)\n", out, len(g.DOT()))
	}
	fmt.Println("shape check: edges equal generated paste events exactly; graph is time-acyclic.")
	return nil
}

// E7: visual mining (Figure 2) — feature extraction + 2-D embedding of the
// document space, with layout-quality and latency measurements.
func runE7(quick bool, _ string) error {
	sizes := []int{100, 500}
	if quick {
		sizes = []int{60}
	}
	fmt.Printf("%-10s %14s %14s %12s\n", "docs", "extract time", "layout time", "nbr-preserve")
	var lastPts []mining.Point
	for _, n := range sizes {
		eng, database, err := memEngine()
		if err != nil {
			return err
		}
		if _, err := workload.BuildCorpus(eng, workload.CorpusSpec{
			Docs: n, Users: 10, MeanSize: 200, ReadRatio: 0.6, StateSplit: 0.4,
			Clusters: 4, Seed: 21,
		}); err != nil {
			return err
		}
		svc, err := index.Open(eng)
		if err != nil {
			return err
		}
		g := svc.Graph()
		svc.Close()
		t0 := time.Now()
		feats, err := mining.Extract(eng, g, eng.Clock().Now())
		if err != nil {
			return err
		}
		extract := time.Since(t0)
		t0 = time.Now()
		pts := mining.Layout(feats)
		layout := time.Since(t0)
		pres := mining.NeighbourPreservation(feats, pts, 5)
		fmt.Printf("%-10d %14v %14v %12.2f\n", n, extract, layout, pres)
		lastPts = pts
		if err := database.Close(); err != nil {
			return err
		}
	}
	fmt.Println("\nFigure 2 — the document space (PCA over metadata dimensions):")
	fmt.Print(mining.Scatter(lastPts, 64, 14))
	fmt.Println("shape check: metadata-similar documents cluster; preservation well above chance.")
	return nil
}

// E8: search latency and ranking options vs corpus size.
func runE8(quick bool, _ string) error {
	sizes := []int{100, 1000}
	if quick {
		sizes = []int{50, 200}
	}
	fmt.Printf("%-8s %12s %12s %12s %12s %12s\n",
		"docs", "index time", "relevance", "newest", "most-cited", "most-read")
	for _, n := range sizes {
		eng, database, err := memEngine()
		if err != nil {
			return err
		}
		docs, err := workload.BuildCorpus(eng, workload.CorpusSpec{
			Docs: n, Users: 8, MeanSize: 150, ReadRatio: 0.5, Seed: 31,
		})
		if err != nil {
			return err
		}
		// Some citations so most-cited has signal.
		for i := 0; i < len(docs)/10; i++ {
			src := docs[i]
			dst := docs[len(docs)-1-i]
			sz := src.Len()
			if sz > 8 {
				sz = 8
			}
			if sz > 0 {
				clip, err := src.Copy("user0", 0, sz)
				if err != nil {
					return err
				}
				if _, err := dst.Paste("user0", 0, clip); err != nil {
					return err
				}
			}
		}
		t0 := time.Now()
		svc, err := index.Open(eng)
		if err != nil {
			return err
		}
		indexTime := time.Since(t0)

		lat := func(r search.Ranker) (time.Duration, error) {
			var rec workload.LatencyRecorder
			for i := 0; i < 20; i++ {
				t0 := time.Now()
				if _, err := svc.Query(search.Query{Terms: []string{"a"}, Rank: r, Limit: 10}); err != nil {
					return 0, err
				}
				rec.Record(time.Since(t0))
			}
			return rec.Mean(), nil
		}
		rel, err := lat(search.ByRelevance)
		if err != nil {
			return err
		}
		newest, err := lat(search.ByNewest)
		if err != nil {
			return err
		}
		cited, err := lat(search.ByMostCited)
		if err != nil {
			return err
		}
		read, err := lat(search.ByMostRead)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %12v %12v %12v %12v %12v\n", n, indexTime, rel, newest, cited, read)
		svc.Close()
		if err := database.Close(); err != nil {
			return err
		}
	}
	fmt.Println("shape check: queries stay interactive as the corpus grows; all rankers comparable.")
	return nil
}

// E9: crash recovery. Two crash images are recovered: (a) an intact log —
// every acknowledged edit must survive — and (b) a log whose tail was torn
// mid-record, simulating a final commit that never fully reached disk —
// exactly that transaction must roll back and everything earlier survive.
func runE9(quick bool, _ string) error {
	opsCounts := []int{200, 1000}
	if quick {
		opsCounts = []int{100}
	}
	fmt.Printf("%-8s %14s %10s %10s %12s %12s\n",
		"ops", "recover time", "analyzed", "redone", "intact loss", "torn loss")
	for _, ops := range opsCounts {
		disk := storage.NewMemDisk()
		store := wal.NewMemStore()
		database, err := db.OpenWith(disk, store, db.Options{})
		if err != nil {
			return err
		}
		eng, err := core.NewEngine(database, nil)
		if err != nil {
			return err
		}
		doc, err := eng.CreateDocument("storm", "e9")
		if err != nil {
			return err
		}
		rng := util.NewRand(17)
		for i := 0; i < ops-1; i++ {
			if _, err := doc.AppendText("storm", rng.Letters(4)); err != nil {
				return err
			}
		}
		prefix := doc.Text() // state acknowledged before the final edit
		if _, err := doc.AppendText("storm", rng.Letters(4)); err != nil {
			return err
		}
		full := doc.Text()
		docID := doc.ID()
		if err := database.Pool().FlushAll(); err != nil {
			return err
		}
		logBytes, err := store.ReadAll()
		if err != nil {
			return err
		}

		reopen := func(tear bool) (*core.Document, *db.Database, time.Duration, error) {
			crashDisk := storage.NewMemDisk() // pages lost entirely: redo rebuilds them
			crashStore := wal.NewMemStore()
			crashStore.Append(logBytes)
			if tear {
				crashStore.Truncate(crashStore.Len() - 3)
			}
			t0 := time.Now()
			db2, err := db.OpenWith(crashDisk, crashStore, db.Options{})
			if err != nil {
				return nil, nil, 0, err
			}
			dt := time.Since(t0)
			eng2, err := core.NewEngine(db2, nil)
			if err != nil {
				return nil, nil, 0, err
			}
			d2, err := eng2.OpenDocument(docID)
			return d2, db2, dt, err
		}

		intactDoc, intactDB, recoverTime, err := reopen(false)
		if err != nil {
			return err
		}
		intactLoss := len([]rune(full)) - len([]rune(intactDoc.Text()))
		if intactLoss != 0 {
			return fmt.Errorf("durability violated: %d committed chars lost from intact log", intactLoss)
		}
		tornDoc, _, _, err := reopen(true)
		if err != nil {
			return err
		}
		tornLoss := len([]rune(prefix)) - len([]rune(tornDoc.Text()))
		if tornLoss != 0 {
			return fmt.Errorf("torn-tail recovery wrong: prefix differs by %d chars", tornLoss)
		}
		fmt.Printf("%-8d %14v %10d %10d %12d %12d\n",
			ops, recoverTime, intactDB.Recovery.Analyzed, intactDB.Recovery.Redone,
			intactLoss, tornLoss)
	}
	fmt.Println("shape check: intact log loses nothing; a torn final commit rolls back exactly itself.")
	return nil
}

// E10: ablation — paste with full provenance capture vs plain insert of the
// same text. Quantifies the cost of the metadata gathering the paper relies
// on.
func runE10(quick bool, _ string) error {
	pastes := 400
	if quick {
		pastes = 100
	}
	chunk := 64

	eng, database, err := memEngine()
	if err != nil {
		return err
	}
	defer database.Close()
	src, err := eng.CreateDocument("alice", "e10-src")
	if err != nil {
		return err
	}
	rng := util.NewRand(5)
	if _, err := src.AppendText("alice", rng.Letters(chunk*2)); err != nil {
		return err
	}

	withDoc, err := eng.CreateDocument("alice", "e10-with")
	if err != nil {
		return err
	}
	clip, err := src.Copy("alice", 0, chunk)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < pastes; i++ {
		if _, err := withDoc.Paste("alice", withDoc.Len(), clip); err != nil {
			return err
		}
	}
	withProv := time.Since(t0)

	withoutDoc, err := eng.CreateDocument("alice", "e10-without")
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < pastes; i++ {
		if _, err := withoutDoc.InsertText("alice", withoutDoc.Len(), clip.Text); err != nil {
			return err
		}
	}
	withoutProv := time.Since(t0)

	ratio := float64(withProv) / float64(withoutProv)
	fmt.Printf("%-28s %12s %14s\n", "variant", "total", "per paste")
	fmt.Printf("%-28s %12v %14v\n", "paste with provenance", withProv,
		withProv/time.Duration(pastes))
	fmt.Printf("%-28s %12v %14v\n", "plain insert (no lineage)", withoutProv,
		withoutProv/time.Duration(pastes))
	fmt.Printf("overhead factor: %.2fx\n", ratio)
	if ratio > 2.0 {
		fmt.Println("WARNING: provenance overhead exceeds the expected <2x envelope")
	} else {
		fmt.Println("shape check: lineage capture costs a small constant factor (<2x), as claimed affordable.")
	}
	return nil
}

// E17 — Multi-tenant event stream under a connection storm.
//
// Phase A subscribes a large fleet (10k full, 500 quick) to ONE document
// on the awareness bus — each subscription a cursor into the document's
// op ring — then publishes a typing storm that fits the ring. A quarter of
// the fleet reads nothing until the whole storm is published, so it lags
// by the entire storm; the rest read as fast as they can. The experiment
// asserts that nobody sheds (a lag within the ring loses nothing), that a
// sample of replicas folding the stream reconverges byte-for-byte with the
// committed text, slow ones included, and that the deepest lag is exactly
// the storm.
//
// Phase B exercises the server-side rate limiter over TCP: a client
// flooding past its token-bucket budget must receive the typed
// "throttled" rejection with a positive retry-after hint, counted in the
// server metrics, while the connection itself survives.
func runE17(quick bool, _ string) error {
	nSubs := 10000
	storm := 1000
	if quick {
		nSubs = 500
		storm = 600
	}
	const sampled = 16 // subscribers that maintain a full replica

	eng, database, err := memEngine()
	if err != nil {
		return err
	}
	defer database.Close()

	doc, err := eng.CreateDocument("storm", "e17")
	if err != nil {
		return err
	}
	bus := eng.Bus()
	if storm > bus.Retention() {
		return fmt.Errorf("e17: storm %d does not fit the op ring (%d)", storm, bus.Retention())
	}
	var shedCount, depthGauge atomic.Int64
	bus.SetCounters(&shedCount, &depthGauge)

	// The storm's edits, precomputed so the publisher loop is pure
	// commit work: position i inserts one letter at a deterministic spot.
	positions := make([]int, storm)
	letters := make([]string, storm)
	for i := range positions {
		positions[i] = (i * 7919) % (i + 1) // pseudo-scatter, always in range
		letters[i] = string(rune('a' + i%26))
	}

	var (
		wg        sync.WaitGroup
		published = make(chan struct{}) // closed once the whole storm is in the ring
		delivered atomic.Int64
		gaps      atomic.Int64
		converged atomic.Int64
	)
	before := bus.Seq(doc.ID())
	target := before + uint64(storm)

	subscriber := func(idx int, sub *awareness.Subscription) {
		defer wg.Done()
		defer sub.Close()
		fold := idx < sampled
		// A quarter of the fleet — including half the sampled replicas —
		// reads nothing until the storm is over, so it lags by all of it,
		// and the byte-for-byte convergence check covers such readers.
		if idx%4 == 3 || idx < sampled/2 {
			<-published
		}
		var replica []rune
		for last := before; last < target; {
			ev, ok := sub.Next()
			if !ok {
				return
			}
			if ev.Kind == awareness.EvGap {
				gaps.Add(1)
				return
			}
			delivered.Add(1)
			last = ev.Seq
			if fold && ev.Kind == awareness.EvInsert {
				pos := min(ev.Pos, len(replica))
				replica = append(replica[:pos], append([]rune(ev.Text), replica[pos:]...)...)
			}
		}
		if fold && string(replica) == doc.Text() {
			converged.Add(1)
		}
	}

	// Every subscriber is registered BEFORE the first storm event, so a
	// replica that misses anything has lost it.
	subs := make([]*awareness.Subscription, nSubs)
	for i := range subs {
		subs[i] = bus.Subscribe(doc.ID(), awareness.SubscribeOpts{})
	}
	wg.Add(nSubs)
	for i := range subs {
		go subscriber(i, subs[i])
	}
	start := time.Now()
	var lsn wal.LSN
	for i := 0; i < storm; i++ {
		op := core.EditOp{Kind: core.EditInsert, Pos: positions[i], Text: letters[i]}
		if _, lsn, err = doc.ApplyAsync("storm", []core.EditOp{op}); err != nil {
			return err
		}
	}
	close(published)
	if err := eng.WaitDurable(lsn); err != nil {
		return err
	}
	wg.Wait()
	elapsed := time.Since(start)
	maxDepth := 0
	for _, sub := range subs {
		maxDepth = max(maxDepth, sub.MaxDepth())
	}
	if shedCount.Load() != 0 || gaps.Load() != 0 {
		return fmt.Errorf("e17: a storm within the op ring shed %d events (%d gaps)", shedCount.Load(), gaps.Load())
	}
	if got := converged.Load(); got != sampled {
		return fmt.Errorf("e17: only %d/%d sampled replicas reconverged", got, sampled)
	}
	if maxDepth != storm {
		return fmt.Errorf("e17: deepest lag %d, want the whole storm (%d)", maxDepth, storm)
	}
	if depthGauge.Load() != 0 {
		return fmt.Errorf("e17: %d unread events counted after every subscriber closed", depthGauge.Load())
	}
	fanout := float64(delivered.Load()) / elapsed.Seconds()

	// --- Phase B: typed throttling over TCP. ---
	srv := server.New(eng, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	srv.SetRateLimit(25, 0) // 25 edit batches/s per connection, burst 50
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve() }()
	defer func() { _ = srv.Close() }()

	c, err := client.Dial(addr.String(), client.WithUser("flooder"))
	if err != nil {
		return err
	}
	defer c.Close()
	floodID, err := c.CreateDocument("e17-flood")
	if err != nil {
		return err
	}
	fd, err := c.Open(floodID)
	if err != nil {
		return err
	}
	throttles := 0
	var retryHint time.Duration
	for i := 0; i < 200 && throttles == 0; i++ {
		err := fd.Append("z")
		var th *client.ThrottledError
		switch {
		case err == nil:
		case errors.As(err, &th):
			throttles++
			retryHint = th.RetryAfter
		default:
			return err
		}
	}
	if throttles == 0 {
		return fmt.Errorf("e17: 200 instant edits never throttled at 25 edits/s")
	}
	if retryHint <= 0 {
		return fmt.Errorf("e17: throttled without a retry-after hint")
	}
	if srv.Metrics().Throttles.Load() == 0 {
		return fmt.Errorf("e17: throttle rejections not counted in metrics")
	}

	fmt.Printf("  subscribers on one doc          %10d\n", nSubs)
	fmt.Printf("  storm events published          %10d\n", storm)
	fmt.Printf("  fan-out deliveries/sec          %10.0f\n", fanout)
	fmt.Printf("  events shed (ring evicted)      %10d\n", shedCount.Load())
	fmt.Printf("  deepest lag (ring %4d)         %10d\n", bus.Retention(), maxDepth)
	fmt.Printf("  sampled replicas reconverged    %10d/%d\n", converged.Load(), sampled)
	fmt.Printf("  throttle retry-after hint       %10s\n", retryHint)
	return nil
}

// E18: per-process engine sharding. The same 8-writer cross-shard typing
// storm runs against placement clusters of 1, 2 and 4 shards, every shard
// file-backed with its own write-ahead log, group-commit pipeline and
// recovery. Documents are placed round-robin, so the writers split evenly
// across shards; the metric is durable keystrokes per second — the run
// ends only when every shard's WAL has synced the last keystroke.
//
// Two legs separate the two resources sharding multiplies:
//
//   - burst (group commit, 64-key durability bursts): throughput is bound
//     by commit-path CPU (character-record apply, WAL append, bus publish).
//     Shards multiply the serial pipelines, so this leg scales with cores.
//   - sync (per-keystroke durability): throughput is bound by the WAL sync
//     cadence. Shards multiply the device lanes syncing in parallel.
//
// On a single-CPU host the burst leg cannot exceed ~1x by construction —
// coalescing group commit already overlaps one WAL's sync with commit
// work, so extra pipelines only help when they run on extra cores. The
// scaling gate therefore engages only when the host has >= 4 CPUs.
func runE18(quick bool, _ string) error {
	const writers = 8
	keysPer := 4000
	syncKeys := 600
	if quick {
		keysPer = 1000
		syncKeys = 300
	}
	cores := runtime.NumCPU()
	fmt.Printf("host: %d CPU(s); 8 writers, one document each, round-robin placement\n", cores)
	fmt.Printf("%-8s %-7s %16s %14s %10s\n", "leg", "shards", "durable keys/s", "elapsed", "scaling")
	legs := []struct {
		name    string
		keys    int
		ack     int
		syncful bool // per-commit sync (group commit off): device-lane leg
	}{
		{"burst", keysPer, 64, false},
		{"sync", syncKeys, 1, true},
	}
	scale := make(map[string]float64)
	for _, leg := range legs {
		var base float64
		for _, n := range []int{1, 2, 4} {
			rate, elapsed, err := e18Storm(n, writers, leg.keys, leg.ack, leg.syncful)
			if err != nil {
				return err
			}
			if n == 1 {
				base = rate
			}
			s := rate / base
			if n == 4 {
				scale[leg.name] = s
			}
			fmt.Printf("%-8s %-7d %16.0f %14s %9.2fx\n",
				leg.name, n, rate, elapsed.Round(time.Millisecond), s)
		}
	}
	// A -quick storm lasts a few hundred milliseconds: beside other work
	// on a shared host its throughput ratios are noise, so the smoke run
	// only shows the table.
	if quick {
		fmt.Println("note: -quick run — scaling gates skipped")
		return nil
	}
	if cores >= 4 && scale["burst"] < 2.5 {
		return fmt.Errorf("e18: burst leg scaled only %.2fx from 1 to 4 shards on a %d-CPU host (want >= 2.5x)",
			scale["burst"], cores)
	}
	if cores < 4 {
		fmt.Printf("note: %d-CPU host — shard pipelines cannot run in parallel; scaling gate skipped\n", cores)
	}
	// Sharding must never cost throughput: the storm splits across
	// independent pipelines even when they time-share one core.
	if scale["burst"] < 0.85 {
		return fmt.Errorf("e18: 4-shard burst throughput regressed to %.2fx of single-shard", scale["burst"])
	}
	return nil
}

// e18Storm runs one cross-shard typing storm: writers goroutines, one
// document each, placed round-robin over n file-backed shards. Writers
// commit asynchronously and wait for durability every ackEvery keystrokes,
// plus a final wait, so the reported rate covers fully synced WALs.
// syncful disables group commit: every durability wait pays its own
// device sync on the owning shard's WAL.
func e18Storm(n, writers, keysPer, ackEvery int, syncful bool) (rate float64, elapsed time.Duration, err error) {
	dir, err := os.MkdirTemp("", "tendax-e18-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cl, err := placement.Open(placement.Options{
		Shards: n,
		Dir:    dir,
		DB:     db.Options{DisableGroupCommit: syncful},
	})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()

	docs := make([]*core.Document, writers)
	for i := range docs {
		if docs[i], err = cl.CreateDocument("bench", fmt.Sprintf("e18-%d", i)); err != nil {
			return 0, 0, err
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	start := time.Now()
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(d *core.Document) {
			defer wg.Done()
			eng := cl.EngineFor(d.ID())
			var lsn wal.LSN
			for i := 0; i < keysPer; i++ {
				_, l, err := d.ApplyAsync("typist", []core.EditOp{{Kind: core.EditInsert, Text: "x"}})
				if err != nil {
					errc <- err
					return
				}
				lsn = l
				if (i+1)%ackEvery == 0 {
					if err := eng.WaitDurable(lsn); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- eng.WaitDurable(lsn)
		}(docs[w])
	}
	wg.Wait()
	for i := 0; i < writers; i++ {
		if e := <-errc; e != nil {
			return 0, 0, e
		}
	}
	elapsed = time.Since(start)
	return float64(writers*keysPer) / elapsed.Seconds(), elapsed, nil
}
