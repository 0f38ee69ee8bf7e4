// Package analysistest runs one framework.Analyzer over fixture packages
// laid out in the x/tools convention — testdata/src/<import path>/*.go
// next to the analyzer's test — and checks its diagnostics against
// `// want` expectations embedded in the fixtures:
//
//	mu.Lock()
//	wal.WaitFlushed(1) // want `blocks on fsync`
//
// Each comment holds one or more quoted or backquoted regular
// expressions; every expectation must be matched by exactly one
// diagnostic on that line, and every diagnostic must be expected. The
// fixtures double as the suite's regression corpus: each analyzer keeps a
// fixture reproducing the historical bug it was written to prevent.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tendax/internal/analysis/framework"
)

// Run loads the fixture packages (plus their fixture-tree dependencies)
// and applies the analyzer, failing t on any mismatch between
// diagnostics and the fixtures' want expectations.
//
//tendax:allow-testonly the test-support package analysistest: every analyzer test calls it
func Run(t *testing.T, analyzer *framework.Analyzer, pkgs ...string) {
	t.Helper()
	RunWithExtraRoot(t, analyzer, nil, pkgs...)
}

// RunWithExtraRoot is Run with the fixture packages extra as the run's
// extra root: loaded by a loader of their own, a second type universe as
// a nested module is, and handed to End hooks for their uses only.
func RunWithExtraRoot(t *testing.T, analyzer *framework.Analyzer, extra []string, pkgs ...string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	srcRoot := filepath.Join(wd, "testdata", "src")
	root, err := framework.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := framework.NewLoader(root).LoadFixture(srcRoot, pkgs...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	var extraLoaded []*framework.Package
	if len(extra) > 0 {
		if extraLoaded, err = framework.NewLoader(root).LoadFixture(srcRoot, extra...); err != nil {
			t.Fatalf("loading extra-root fixtures: %v", err)
		}
	}
	runner := framework.NewRunner(loaded, extraLoaded...)
	findings, err := runner.Run([]*framework.Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s: %v", analyzer.Name, err)
	}

	wants := collectWants(t, loaded)
	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: %s", f.Pos.Filename, f.Pos.Line, f.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRE pulls the expectation patterns out of a comment's text: a
// leading "want" followed by quoted or backquoted regexps.
var wantMarker = regexp.MustCompile(`//\s*want\s+(.*)$`)

func collectWants(t *testing.T, pkgs []*framework.Package) []want {
	t.Helper()
	var wants []want
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantMarker.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					for _, pat := range splitPatterns(m[1]) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// splitPatterns parses a sequence of `...`-  or "..."-delimited patterns.
func splitPatterns(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		quote := s[0]
		if quote != '`' && quote != '"' {
			return out
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return out
		}
		out = append(out, s[1:1+end])
		s = s[end+2:]
	}
}
