package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one package loaded from source, fully typechecked.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader resolves and typechecks packages. Module and standard-library
// dependencies are imported through the toolchain's export data (obtained
// with `go list -export`, which compiles against the local build cache —
// no network); the packages under analysis are parsed and typechecked
// from source so analyzers see doc comments and full ASTs.
type Loader struct {
	ModuleDir string

	fset    *token.FileSet
	exports map[string]string // import path -> export-data file
	typed   map[string]*types.Package
	loading map[string]bool // fixture import-cycle guard
	gc      types.Importer  // single gc-export-data importer: one instance
	//                         keeps every import of a path canonical
}

// NewLoader returns a loader rooted at the module directory (where `go
// list` runs).
func NewLoader(moduleDir string) *Loader {
	return &Loader{
		ModuleDir: moduleDir,
		fset:      token.NewFileSet(),
		exports:   make(map[string]string),
		typed:     make(map[string]*types.Package),
		loading:   make(map[string]bool),
	}
}

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

// goList runs `go list -deps -export -json` over the patterns and records
// every listed package's export data, returning the non-standard entries
// in dependency order.
func (ld *Loader) goList(patterns ...string) ([]listedPkg, error) {
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Standard,Export"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = ld.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var module []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		if p.Export != "" {
			ld.exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			module = append(module, p)
		}
	}
	return module, nil
}

// LoadPatterns loads the packages matched by the `go list` patterns (plus
// their in-module dependencies) from source, in dependency order.
func (ld *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	listed, err := ld.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range listed {
		if _, done := ld.typed[p.ImportPath]; done {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := ld.check(p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ModuleRoot returns the nearest directory at or above dir that holds a
// go.mod.
func ModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod at or above %s", dir)
		}
		d = parent
	}
}

// WholeModule reports whether pkgs are exactly the packages of the module
// rooted at root (its ./...): only then does a rule about what no package
// uses see every use.
func WholeModule(root string, pkgs []*Package) (bool, error) {
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return false, fmt.Errorf("go list ./...: %v\n%s", err, stderr.String())
	}
	paths := strings.Fields(string(out))
	if len(paths) != len(pkgs) {
		return false, nil
	}
	have := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		have[p.PkgPath] = true
	}
	for _, path := range paths {
		if !have[path] {
			return false, nil
		}
	}
	return true, nil
}

// extraRoot is the nested module, relative to the module root, whose
// uses count as the engine's: keystroke-bench drives the engine from
// benchmark/, a module of its own (replace tendax => ../).
const extraRoot = "benchmark"

// LoadExtraRoot loads every package of the extraRoot module under
// moduleDir with a loader of its own, so its packages and their copies of
// the module's are a second type universe. It returns nothing when
// moduleDir has no extraRoot/go.mod.
func LoadExtraRoot(moduleDir string) ([]*Package, error) {
	dir := filepath.Join(moduleDir, extraRoot)
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		return nil, nil
	}
	pkgs, err := NewLoader(dir).LoadPatterns("./...")
	if err != nil {
		return nil, err
	}
	own := pkgs[:0]
	for _, p := range pkgs {
		if p.Dir == dir || strings.HasPrefix(p.Dir, dir+string(filepath.Separator)) {
			own = append(own, p)
		}
	}
	return own, nil
}

// LoadFixture loads the named import paths from a fixture tree laid out
// as srcRoot/<import path>/*.go (the analysistest convention). Imports
// resolve against the fixture tree first, then the module and standard
// library through export data. The returned slice contains every fixture
// package loaded, dependencies before dependents.
func (ld *Loader) LoadFixture(srcRoot string, paths ...string) ([]*Package, error) {
	var pkgs []*Package
	for _, path := range paths {
		if err := ld.loadFixturePkg(srcRoot, path, &pkgs); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

func (ld *Loader) loadFixturePkg(srcRoot, path string, out *[]*Package) error {
	if _, done := ld.typed[path]; done {
		return nil
	}
	if ld.loading[path] {
		return fmt.Errorf("fixture import cycle through %q", path)
	}
	dir := filepath.Join(srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("fixture package %q: %v", path, err)
	}
	var files []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, filepath.Join(dir, name))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return fmt.Errorf("fixture package %q: no Go files in %s", path, dir)
	}
	// Resolve fixture-local imports first so dependencies precede
	// dependents in *out.
	ld.loading[path] = true
	defer delete(ld.loading, path)
	parsed := make([]*ast.File, 0, len(files))
	for _, f := range files {
		af, err := parser.ParseFile(ld.fset, f, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		parsed = append(parsed, af)
	}
	for _, af := range parsed {
		for _, imp := range af.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if _, done := ld.typed[ipath]; done {
				continue
			}
			if st, err := os.Stat(filepath.Join(srcRoot, filepath.FromSlash(ipath))); err == nil && st.IsDir() {
				if err := ld.loadFixturePkg(srcRoot, ipath, out); err != nil {
					return err
				}
			}
		}
	}
	pkg, err := ld.checkParsed(path, dir, parsed)
	if err != nil {
		return err
	}
	*out = append(*out, pkg)
	return nil
}

func (ld *Loader) check(path, dir string, files []string) (*Package, error) {
	parsed := make([]*ast.File, 0, len(files))
	for _, f := range files {
		af, err := parser.ParseFile(ld.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
	}
	return ld.checkParsed(path, dir, parsed)
}

func (ld *Loader) checkParsed(path, dir string, parsed []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: (*loaderImporter)(ld)}
	tpkg, err := conf.Check(path, ld.fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	ld.typed[path] = tpkg
	return &Package{
		PkgPath: path, Dir: dir, Fset: ld.fset,
		Files: parsed, Types: tpkg, TypesInfo: info,
	}, nil
}

// loaderImporter resolves imports during typechecking: already-loaded
// source packages first, then export data, fetching export data on demand
// (one extra `go list` round trip) for paths outside the original
// pattern's dependency closure.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	ld := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := ld.typed[path]; ok {
		return tp, nil
	}
	if _, ok := ld.exports[path]; !ok {
		if _, err := ld.goList(path); err != nil {
			return nil, err
		}
	}
	if ld.gc == nil {
		ld.gc = importer.ForCompiler(ld.fset, "gc", func(p string) (io.ReadCloser, error) {
			f, ok := ld.exports[p]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", p)
			}
			return os.Open(f)
		})
	}
	tp, err := ld.gc.Import(path)
	if err != nil {
		return nil, err
	}
	ld.typed[path] = tp
	return tp, nil
}
