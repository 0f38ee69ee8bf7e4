// Command tendax-vet runs the repository's invariant suite: static
// analyzers that mechanically enforce the engine's concurrency,
// durability and tenancy contracts, each one encoding a rule this
// codebase already paid for once:
//
//	locksync      durability waits happen outside document locks (PR 1)
//	snapshotread  reads resolve through the published snapshot (PR 3)
//	visclass      wire-cache keys carry the visibility class (PR 7)
//	failclosed    security verdicts gate what happens next (PR 7)
//	testonly      every exported name in internal/ has a non-test user
//
// Usage:
//
//	go run ./cmd/tendax-vet ./...
//
// testonly also reads benchmark/, a module of its own, whenever
// benchmark/go.mod exists under the module root: what keystroke-bench
// calls counts as used. It judges what no package uses, so it runs only
// when the patterns load the whole module, and is skipped (with a note on
// stderr) on a partial run such as ./internal/core.
//
// Findings print as path:line:col: [analyzer] message, and any finding
// makes the exit status 1 — CI runs this as a gating job. Suppress a
// finding with //tendax:allow-<analyzer> <reason> on or above the line;
// the reason is mandatory. Uses of deprecated API are staticcheck's job
// (SA1019, run by golangci-lint), not this suite's.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tendax/internal/analysis/failclosed"
	"tendax/internal/analysis/framework"
	"tendax/internal/analysis/locksync"
	"tendax/internal/analysis/snapshotread"
	"tendax/internal/analysis/testonly"
	"tendax/internal/analysis/visclass"
)

var analyzers = []*framework.Analyzer{
	locksync.Analyzer,
	snapshotread.Analyzer,
	visclass.Analyzer,
	failclosed.Analyzer,
	testonly.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	ld := framework.NewLoader(wd)
	pkgs, err := ld.LoadPatterns(patterns...)
	if err != nil {
		fatal(err)
	}
	root, err := framework.ModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	// A whole-run rule (an End hook) judges what no package uses, so it
	// runs only when the patterns load the whole module.
	run, extra := analyzers, []*framework.Package(nil)
	whole, err := framework.WholeModule(root, pkgs)
	if err != nil {
		fatal(err)
	}
	if whole {
		if extra, err = framework.LoadExtraRoot(root); err != nil {
			fatal(err)
		}
	} else {
		run = nil
		for _, a := range analyzers {
			if a.End == nil {
				run = append(run, a)
			} else {
				fmt.Fprintf(os.Stderr, "tendax-vet: %s skipped: it needs the whole module (./... in %s)\n", a.Name, root)
			}
		}
	}
	findings, err := framework.NewRunner(pkgs, extra...).Run(run)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(wd, name); err == nil && !filepath.IsAbs(rel) {
			name = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", name, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tendax-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tendax-vet:", err)
	os.Exit(1)
}
