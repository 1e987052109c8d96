// Package analysis is the repo's static-analysis suite: ten custom
// passes that turn the determinism, tracing, telemetry, units, and
// resource-hygiene contracts the engine packages rely on —
// bit-identical parallel results, leak-free span trees, no wall-clock
// reads on resumable paths, a statically enumerable metric namespace,
// connection-safe HTTP clients, wrap-proof error handling, leak-free
// admission gates, threaded cancellation contexts — into build-time
// errors instead of code-review folklore.
//
// The resource-hygiene passes (spanhygiene, httpbody, gateleak) share
// one syntactic rule (release.go): a tracked resource bound to a local
// is released by the defer statement directly after its acquisition,
// or directly after the acquisition's `if err != nil` guard, and every
// other acquisition is flagged. A defer runs on every path out of the
// function, so the rule needs no control-flow graph. Each analyzer
// supplies what acquires its resource and what releases it. See
// docs/static-analysis.md for what the rule accepts and flags.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Diagnostic) but is built on the standard
// library alone: packages are enumerated with `go list -deps -json` and
// type-checked with go/types, so the linter needs nothing outside the
// Go toolchain. See docs/static-analysis.md for the contract each
// analyzer enforces and cmd/smartndrlint for the CLI driver.
//
// Two comment directives tune the suite:
//
//	//lint:commutative <why>        the annotated map range is provably
//	                                order-independent (maporder skips it)
//	//lint:allow <analyzer> <why>   suppress one analyzer on this line
//
// A directive applies to the line it sits on, or to the following line
// when written on a line of its own. The justification text is
// mandatory by convention — an annotation without a why does not
// survive review — but the parser only needs the directive word.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned and attributed to its
// analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	directives directiveIndex
	report     func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// HasDirective reports whether the line holding pos (or the line above
// it) carries the named //lint: directive.
func (p *Pass) HasDirective(pos token.Pos, name string) bool {
	return p.directives.has(p.Fset.Position(pos), name)
}

// directiveIndex maps file → line → directive words found in
// //lint:-prefixed comments.
type directiveIndex map[string]map[int][]string

func (d directiveIndex) has(pos token.Position, name string) bool {
	lines := d[pos.Filename]
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, w := range lines[l] {
			if w == name {
				return true
			}
		}
	}
	return false
}

// buildDirectives scans a file's comments for //lint: directives. The
// directive word is everything after the colon up to the first space,
// with an optional "allow " prefix folding the allowed analyzer name
// into the word list (so "//lint:allow wallclock why" indexes both
// "allow" and "allow:wallclock").
func buildDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := directiveIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				words := []string{fields[0]}
				if fields[0] == "allow" && len(fields) > 1 {
					words = append(words, "allow:"+fields[1])
				}
				pos := fset.Position(c.Pos())
				m := idx[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					idx[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], words...)
			}
		}
	}
	return idx
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Maporder, Seededrand, Wallclock, Spanhygiene, Floatorder, Metricname, Httpbody, Errcmp, Gateleak, Ctxflow}
}

// ByName resolves a comma-separated analyzer subset ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies each analyzer to each package, drops findings
// suppressed by a matching //lint:allow directive, and returns the rest
// sorted by position — the suite's own output must be deterministic.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				directives: pkg.directives,
			}
			pass.report = func(d Diagnostic) {
				if pkg.directives.has(d.Pos, "allow:"+d.Analyzer) {
					return
				}
				diags = append(diags, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders findings by position, then analyzer — the
// canonical deterministic output order. Exported for drivers that run
// analyzers separately (per-analyzer timing) and merge afterwards.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pkgFunc resolves a call of the form pkg.Fn(...) to the imported
// package path and function name; empty strings otherwise.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// methodOn resolves a call of the form x.M(...) to the defining package
// path and named type of the method's receiver; empty strings when the
// call is not a method call on a named (possibly pointer) receiver.
func methodOn(info *types.Info, call *ast.CallExpr) (pkgPath, typeName, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", ""
	}
	return obj.Pkg().Path(), obj.Name(), fn.Name()
}
