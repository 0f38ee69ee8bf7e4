// Command tendax-bench runs the TeNDaX reproduction experiments (see
// DESIGN.md and EXPERIMENTS.md) and prints one table per experiment: the
// paper's demonstrations E1–E10, plus E17 (multi-tenant subscriber storm)
// and E18 (per-process sharding), which keystroke-bench has no
// workload for yet. Each experiment ends with a shape check and fails the
// run when it does not hold. E6 additionally writes lineage.dot
// (Figure 1) and E7 prints the document-space scatter (Figure 2).
//
// Performance numbers live in keystroke-bench (benchmark/run.sh), not
// here; these runs show that each mechanism works and has the expected
// shape.
//
// Usage:
//
//	tendax-bench [-exp all|e1|...|e10|e17|e18] [-quick] [-out lineage.dot]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

// experiment is one registry entry. run prints the experiment's table and
// returns an error when its shape check fails; quick shrinks the
// parameters to a smoke run, and out is where E6 writes its DOT file.
type experiment struct {
	id   string
	name string
	run  func(quick bool, out string) error
}

// runs is the registry: every experiment exists exactly once, here, and
// both the command and TestRegistryQuick iterate it.
var runs = []experiment{
	{"e1", "Collaborative editing over TCP (LAN party, §3)", runE1},
	{"e2", "Real-time edit transaction latency (§2)", runE2},
	{"e3", "Local and global undo/redo (§3)", runE3},
	{"e4", "Business process definition and flow (§3)", runE4},
	{"e5", "Dynamic folders (§3)", runE5},
	{"e6", "Data lineage — Figure 1", runE6},
	{"e7", "Visual mining — Figure 2", runE7},
	{"e8", "Search with ranking options (§3)", runE8},
	{"e9", "Crash recovery and durability (§2)", runE9},
	{"e10", "Provenance-capture overhead ablation", runE10},
	{"e17", "Multi-tenant event stream: subscriber storm within the op ring and typed throttling", runE17},
	{"e18", "Per-process engine sharding: cross-shard typing storm", runE18},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (e1..e10, e17, e18 or all)")
	quick := flag.Bool("quick", false, "smaller parameters for a fast smoke run")
	out := flag.String("out", "lineage.dot", "output path for the E6 lineage DOT file")
	flag.Parse()

	ran := 0
	for _, r := range runs {
		if *exp != "all" && !strings.EqualFold(*exp, r.id) {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", strings.ToUpper(r.id), r.name)
		if err := r.run(*quick, *out); err != nil {
			log.Fatalf("%s: %v", r.id, err)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
