// Package framework is a self-contained, stdlib-only core for the
// tendax-vet invariant suite: a minimal reimplementation of the
// golang.org/x/tools/go/analysis surface this repo needs (Analyzer, Pass,
// diagnostics, per-object facts flowing in dependency order) plus a
// package loader built on `go list` and the toolchain's export data, so
// the suite works in hermetic builds with no module downloads.
//
// The deliberate differences from x/tools are small: facts are held in
// the Runner for the lifetime of one run (no serialization — every run
// loads the whole module anyway), and diagnostic suppression is built in:
// a `//tendax:allow-<analyzer> <reason>` comment on the flagged line or
// the line above silences the finding, but only when a non-empty reason
// is given. The escape hatch is grep-able, reviewed like code, and the
// reason requirement keeps it from becoming ambient.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run is called once per loaded
// package, in dependency order, so facts exported for a package's objects
// are visible when its dependents are analyzed.
type Analyzer struct {
	Name string // short lower-case name; also the allow-comment key
	Doc  string // one-paragraph description of the invariant enforced

	Run func(*Pass) error
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one package plus the shared state
// of the run.
type Pass struct {
	Analyzer  *Analyzer
	Pkg       *Package
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	runner *Runner
}

// Report records a finding. Suppression (allow comments) is applied by
// the runner after the pass completes, so analyzers never reason about
// comments themselves.
func (p *Pass) Report(d Diagnostic) {
	p.runner.report(p, d)
}

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches a fact to obj, visible to this analyzer's
// later passes (same package or any dependent package).
func (p *Pass) ExportObjectFact(obj types.Object, fact interface{}) {
	if obj == nil {
		return
	}
	m := p.runner.facts[p.Analyzer]
	if m == nil {
		m = make(map[types.Object]interface{})
		p.runner.facts[p.Analyzer] = m
	}
	m[obj] = fact
}

// ImportObjectFact returns the fact attached to obj by this analyzer, if
// any.
func (p *Pass) ImportObjectFact(obj types.Object) (interface{}, bool) {
	f, ok := p.runner.facts[p.Analyzer][obj]
	return f, ok
}

// Finding is one post-suppression diagnostic of a run.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Runner executes analyzers over loaded packages.
type Runner struct {
	pkgs     []*Package
	fset     *token.FileSet
	facts    map[*Analyzer]map[types.Object]interface{}
	findings []Finding

	// allowLines maps file -> line -> directive text for every
	// "//tendax:" comment, built lazily per package.
	allowLines map[string]map[int]string
}

// NewRunner prepares a run over pkgs (as returned by Load, already in
// dependency order).
func NewRunner(pkgs []*Package) *Runner {
	r := &Runner{
		pkgs:       pkgs,
		facts:      make(map[*Analyzer]map[types.Object]interface{}),
		allowLines: make(map[string]map[int]string),
	}
	if len(pkgs) > 0 {
		r.fset = pkgs[0].Fset
	}
	for _, p := range pkgs {
		r.indexDirectives(p)
	}
	return r
}

// Run executes every analyzer over every package, packages outermost in
// dependency order so facts flow from dependencies to dependents.
// Findings are returned sorted by position.
func (r *Runner) Run(analyzers []*Analyzer) ([]Finding, error) {
	for _, pkg := range r.pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Pkg:       pkg,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Types:     pkg.Types,
				TypesInfo: pkg.TypesInfo,
				runner:    r,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return r.findings, nil
}

// report applies the allow-comment suppression protocol and records the
// finding if it survives.
func (r *Runner) report(p *Pass, d Diagnostic) {
	pos := p.Fset.Position(d.Pos)
	key := p.Analyzer.Name
	if directive, _ := r.allowFor(pos, key); directive != "" {
		reason := strings.TrimSpace(strings.TrimPrefix(directive, "tendax:allow-"+key))
		if reason == "" {
			r.findings = append(r.findings, Finding{
				Analyzer: p.Analyzer.Name,
				Pos:      pos,
				Message:  fmt.Sprintf("tendax:allow-%s needs a reason (suppressed: %s)", key, d.Message),
			})
		}
		return
	}
	r.findings = append(r.findings, Finding{Analyzer: p.Analyzer.Name, Pos: pos, Message: d.Message})
}

// allowFor returns the allow directive covering pos for analyzer name, if
// any: same line or the line immediately above.
func (r *Runner) allowFor(pos token.Position, name string) (directive string, line int) {
	lines := r.allowLines[pos.Filename]
	for _, l := range []int{pos.Line, pos.Line - 1} {
		if text, ok := lines[l]; ok && strings.HasPrefix(text, "tendax:allow-"+name) {
			rest := strings.TrimPrefix(text, "tendax:allow-"+name)
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return text, l
			}
		}
	}
	return "", 0
}

// indexDirectives records every //tendax: comment by file and line.
func (r *Runner) indexDirectives(p *Package) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "tendax:") {
					continue
				}
				cpos := p.Fset.Position(c.Pos())
				m := r.allowLines[cpos.Filename]
				if m == nil {
					m = make(map[int]string)
					r.allowLines[cpos.Filename] = m
				}
				m[cpos.Line] = text
			}
		}
	}
}

// FuncDirective reports whether the declaration's doc comment carries the
// given //tendax: directive (e.g. "tendax:visclass-stamp").
func FuncDirective(decl *ast.FuncDecl, directive string) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}
