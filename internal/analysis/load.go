package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives directiveIndex
}

// Loader enumerates packages with `go list -deps -json` and
// type-checks them with go/types, dependencies first, so analyzers get
// full type information without any module dependency beyond the Go
// toolchain itself. Dependency packages are checked with
// IgnoreFuncBodies (only their exported shape matters); the requested
// packages get full bodies, comments, and an ast/types cross-index.
//
// Overlay, when set, is a GOPATH-style source root (dir/<import/path>/)
// consulted before `go list`: analysistest points it at a testdata/src
// tree so golden packages can import stub versions of the repo's own
// packages under their real import paths.
type Loader struct {
	Dir     string // directory to run `go list` from (module root)
	Overlay string // optional GOPATH-style source root, tried first

	fset    *token.FileSet
	pkgs    map[string]*Package // fully loaded, by import path
	loading map[string]bool     // overlay cycle guard
}

type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

func (l *Loader) init() {
	if l.fset == nil {
		l.fset = token.NewFileSet()
		l.pkgs = map[string]*Package{}
		l.loading = map[string]bool{}
	}
}

// Load type-checks the packages matching the go list patterns (plus
// their whole dependency closure) and returns the matched packages.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.init()
	infos, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var roots []*Package
	for _, lp := range infos {
		root := !lp.DepOnly && !lp.Standard
		p, err := l.check(lp, root)
		if err != nil {
			return nil, err
		}
		if root {
			roots = append(roots, p)
		}
	}
	return roots, nil
}

// LoadOverlay type-checks one package from the overlay source root.
func (l *Loader) LoadOverlay(path string) (*Package, error) {
	l.init()
	if l.Overlay == "" {
		return nil, fmt.Errorf("analysis: loader has no overlay root")
	}
	if _, err := l.importPath(path); err != nil {
		return nil, err
	}
	p := l.pkgs[path]
	if p == nil {
		return nil, fmt.Errorf("analysis: overlay package %s did not load", path)
	}
	return p, nil
}

// goList runs `go list -deps -json` and decodes the package stream,
// which arrives dependencies-first — exactly the type-checking order.
// CGO_ENABLED=0 keeps GoFiles self-contained (pure-Go fallbacks) so the
// standard library type-checks from source without a C toolchain.
func (l *Loader) goList(patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var infos []*listPkg
	dec := json.NewDecoder(out)
	for {
		lp := &listPkg{}
		if err := dec.Decode(lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		infos = append(infos, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	for _, lp := range infos {
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
	}
	return infos, nil
}

// check parses and type-checks one listed package (memoized).
func (l *Loader) check(lp *listPkg, full bool) (*Package, error) {
	if p, ok := l.pkgs[lp.ImportPath]; ok {
		return p, nil
	}
	if lp.ImportPath == "unsafe" {
		p := &Package{Path: "unsafe", Fset: l.fset, Types: types.Unsafe}
		l.pkgs["unsafe"] = p
		return p, nil
	}
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	return l.typecheck(lp.ImportPath, files, full, lp.Standard)
}

// typecheck parses the files and runs go/types over them. Standard-
// library packages tolerate type errors (a handful of runtime-internal
// constructs need the compiler); analyzed packages do not.
func (l *Loader) typecheck(path string, filenames []string, full, lenient bool) (*Package, error) {
	mode := parser.SkipObjectResolution
	if full {
		mode |= parser.ParseComments
	}
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, mode)
		if err != nil {
			if lenient {
				continue
			}
			return nil, fmt.Errorf("analysis: parsing %s: %w", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var firstErr error
	conf := types.Config{
		Importer:         importerFunc(l.importPath),
		IgnoreFuncBodies: !full,
		FakeImportC:      true,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if firstErr != nil && !lenient {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, firstErr)
	}
	p := &Package{
		Path:  path,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	if full {
		p.directives = buildDirectives(l.fset, files)
	}
	l.pkgs[path] = p
	return p, nil
}

// importPath resolves an import for the type checker: cached packages
// first, then the overlay source root, then a fresh `go list -deps`
// closure (stdlib or module packages reached only from overlay code).
func (l *Loader) importPath(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if l.Overlay != "" {
		dir := filepath.Join(l.Overlay, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			if l.loading[path] {
				return nil, fmt.Errorf("analysis: import cycle through %s", path)
			}
			l.loading[path] = true
			defer delete(l.loading, path)
			names, err := overlayGoFiles(dir)
			if err != nil {
				return nil, err
			}
			p, err := l.typecheck(path, names, true, false)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
	}
	infos, err := l.goList([]string{"--", path})
	if err != nil {
		return nil, err
	}
	for _, lp := range infos {
		if _, err := l.check(lp, false); err != nil {
			return nil, err
		}
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	return nil, fmt.Errorf("analysis: cannot resolve import %q", path)
}

// overlayGoFiles lists a testdata package dir's Go sources (no test
// files, no build-constraint resolution — golden packages are plain).
func overlayGoFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, n))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in overlay dir %s", dir)
	}
	return names, nil
}

// importerFunc adapts a function to types.Importer. (go/importer's
// implementations resolve through GOPATH or export data; the loader
// needs its own resolution order.)
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
