package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Spanhygiene enforces the two obs contracts that keep trace trees
// well-formed (see internal/obs and docs/observability.md):
//
//  1. Every span opened in a function — tr.Start, sp.Start, sp.Child —
//     must be bound to a local and Ended by a defer on the next line
//     (`defer sp.End()`, or a deferred closure that Ends it). A span
//     leaked on an error return never emits its event and silently
//     truncates the trace. This is the shared defer rule (release.go):
//     a span opened in a loop body, inside another statement, or with
//     its handle discarded is flagged. An explicit End at a section
//     boundary may still precede the deferred one, since End is
//     idempotent.
//  2. Code running concurrently — a `go` statement or a par.ForEach /
//     par.ForEachWorker worker closure — must open spans with
//     Span.Child, never the ambient-stack forms Tracer.Start /
//     Span.Start, whose implicit innermost-open-span nesting races
//     across goroutines.
//
// Suppress a deliberate exception with //lint:allow spanhygiene.
var Spanhygiene = &Analyzer{
	Name: "spanhygiene",
	Doc:  "obs spans must be Ended by a defer right after they open; concurrent code must use Span.Child",
	Run:  runSpanhygiene,
}

var spanRule = &releaseRule{
	acquires: isSpanOpen,
	isHandle: func(types.Type) bool { return true }, // acquires is shape-exact; any bound result is the span
	releases: spanEndedObj,
	noun:     "span",
	release:  func(name string) string { return name + ".End()" },
}

func runSpanhygiene(pass *Pass) error {
	for _, file := range pass.Files {
		checkConcurrentStarts(pass, file)
	}
	return spanRule.run(pass)
}

// isSpanOpen reports whether call opens an obs span.
func isSpanOpen(pass *Pass, call *ast.CallExpr) bool {
	pkg, typ, method := methodOn(pass.Info, call)
	if pathBase(pkg) != "obs" {
		return false
	}
	return (typ == "Tracer" && method == "Start") ||
		(typ == "Span" && (method == "Start" || method == "Child"))
}

// spanEndedObj returns the span variable a call Ends, if any.
func spanEndedObj(pass *Pass, call *ast.CallExpr) types.Object {
	pkg, typ, method := methodOn(pass.Info, call)
	if pathBase(pkg) != "obs" || typ != "Span" || method != "End" {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return objOf(pass, id)
}

// --- rule 2: ambient Start in concurrent code ---

// checkConcurrentStarts finds `go func(){...}` bodies and function
// literals passed to par.ForEach/ForEachWorker, and flags every
// Tracer.Start / Span.Start in their subtrees (nested literals
// inherit the concurrent context).
func checkConcurrentStarts(pass *Pass, file *ast.File) {
	seen := map[token.Pos]bool{}
	flag := func(root ast.Node, context string) {
		ast.Inspect(root, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, typ, method := methodOn(pass.Info, call)
			if pathBase(pkg) != "obs" || method != "Start" || (typ != "Tracer" && typ != "Span") {
				return true
			}
			if seen[call.Pos()] {
				return true
			}
			seen[call.Pos()] = true
			pass.Reportf(call.Pos(),
				"%s.Start uses the tracer's ambient span stack inside %s; concurrent children must use Span.Child",
				typ, context)
			return true
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				flag(lit.Body, "a go statement")
			}
		case *ast.CallExpr:
			pkg, fn := pkgFunc(pass.Info, n)
			if pathBase(pkg) == "par" && (fn == "ForEach" || fn == "ForEachWorker") {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						flag(lit.Body, "a par worker closure")
					}
				}
			}
		}
		return true
	})
}
