// Package workload provides deterministic workload generators for the
// TeNDaX experiments: typist streams, copy-paste chains, multi-user
// LAN-party scripts and corpus builders. They replace the human demo
// participants with reproducible, parameterised drivers (see DESIGN.md,
// substitutions).
package workload

import (
	"fmt"
	"time"

	"tendax/internal/core"
	"tendax/internal/util"
)

// CorpusSpec parameterises a synthetic document corpus. With Clusters > 0
// the corpus gets latent structure: documents of the same cluster share a
// size regime, author count and read activity (what a real document space
// looks like — memos vs. co-authored reports vs. archives), which visual
// mining should recover.
type CorpusSpec struct {
	Docs       int
	Users      int
	MeanSize   int     // characters per document
	ReadRatio  float64 // read events per document
	StateSplit float64 // fraction marked "final"
	Clusters   int     // 0 = unstructured
	Seed       uint64
}

// BuildCorpus populates the engine with a deterministic document corpus and
// returns the created documents.
func BuildCorpus(eng *core.Engine, spec CorpusSpec) ([]*core.Document, error) {
	rng := util.NewRand(spec.Seed)
	if spec.Users < 1 {
		spec.Users = 1
	}
	if spec.MeanSize < 8 {
		spec.MeanSize = 8
	}
	docs := make([]*core.Document, 0, spec.Docs)
	for i := 0; i < spec.Docs; i++ {
		creator := fmt.Sprintf("user%d", rng.Intn(spec.Users))
		d, err := eng.CreateDocument(creator, fmt.Sprintf("doc-%04d", i))
		if err != nil {
			return nil, err
		}
		size := spec.MeanSize/2 + rng.Intn(spec.MeanSize)
		authors := 1 + rng.Intn(3)
		reads := 0
		if rng.Float64() < spec.ReadRatio {
			reads = 1
		}
		if spec.Clusters > 0 {
			// Cluster-correlated regimes with mild noise.
			cluster := i % spec.Clusters
			size = (cluster + 1) * spec.MeanSize / 2
			size += rng.Intn(1+size/8) - size/16
			if size < 4 {
				size = 4
			}
			authors = 1 + cluster%3
			reads = cluster * (1 + rng.Intn(2))
		}
		for a := 0; a < authors; a++ {
			user := fmt.Sprintf("user%d", (i+a)%spec.Users)
			chunk := size / authors
			if chunk < 1 {
				chunk = 1
			}
			if _, err := d.AppendText(user, rng.Letters(chunk)); err != nil {
				return nil, err
			}
		}
		for r := 0; r < reads; r++ {
			reader := fmt.Sprintf("user%d", rng.Intn(spec.Users))
			if err := d.RecordRead(reader); err != nil {
				return nil, err
			}
		}
		if rng.Float64() < spec.StateSplit {
			if err := d.SetState(creator, "final"); err != nil {
				return nil, err
			}
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// PasteChainSpec parameterises a copy-paste provenance tree: Depth
// generations, each document pasting from its parent, FanOut children per
// node — the synthetic workload that regenerates Figure 1.
type PasteChainSpec struct {
	Depth     int
	FanOut    int
	ChunkLen  int // characters copied per paste
	Externals int // external sources pasted into the root
	Seed      uint64
}

// BuildPasteChains creates the provenance tree and returns all documents,
// root first, plus the number of paste edges created.
func BuildPasteChains(eng *core.Engine, spec PasteChainSpec) ([]*core.Document, int, error) {
	rng := util.NewRand(spec.Seed)
	if spec.ChunkLen < 1 {
		spec.ChunkLen = 16
	}
	root, err := eng.CreateDocument("author0", "root")
	if err != nil {
		return nil, 0, err
	}
	if _, err := root.AppendText("author0", rng.Letters(spec.ChunkLen*4)); err != nil {
		return nil, 0, err
	}
	edges := 0
	for i := 0; i < spec.Externals; i++ {
		ext, err := eng.CreateExternalSource(fmt.Sprintf("https://example.org/src-%d", i))
		if err != nil {
			return nil, 0, err
		}
		if _, err := root.Paste("author0", 0, core.Clipboard{
			Text: rng.Letters(spec.ChunkLen), SrcDoc: ext,
		}); err != nil {
			return nil, 0, err
		}
		edges++
	}
	docs := []*core.Document{root}
	frontier := []*core.Document{root}
	gen := 0
	for depth := 1; depth <= spec.Depth; depth++ {
		var next []*core.Document
		for _, parent := range frontier {
			for f := 0; f < spec.FanOut; f++ {
				gen++
				user := fmt.Sprintf("author%d", gen%7)
				child, err := eng.CreateDocument(user, fmt.Sprintf("d%d-%d", depth, gen))
				if err != nil {
					return nil, 0, err
				}
				if _, err := child.AppendText(user, rng.Letters(spec.ChunkLen)); err != nil {
					return nil, 0, err
				}
				n := spec.ChunkLen
				if parent.Len() < n {
					n = parent.Len()
				}
				clip, err := parent.Copy(user, 0, n)
				if err != nil {
					return nil, 0, err
				}
				if _, err := child.Paste(user, child.Len(), clip); err != nil {
					return nil, 0, err
				}
				edges++
				docs = append(docs, child)
				next = append(next, child)
			}
		}
		frontier = next
	}
	return docs, edges, nil
}

// LatencyRecorder collects operation latencies and reports percentiles.
type LatencyRecorder struct {
	samples []time.Duration
}

// Record adds one sample.
func (l *LatencyRecorder) Record(d time.Duration) { l.samples = append(l.samples, d) }

// count returns the number of samples.
func (l *LatencyRecorder) count() int { return len(l.samples) }

// Percentile returns the p-th percentile (0 < p <= 100).
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.samples...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the mean latency.
func (l *LatencyRecorder) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}
