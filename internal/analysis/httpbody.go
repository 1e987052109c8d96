package analysis

import (
	"go/ast"
	"go/types"
)

// Httpbody enforces the HTTP client hygiene contract the cluster
// transport relies on: every *http.Response acquired in a function must
// be bound to a local and have its Body closed by a defer right after
// the acquisition's error check (`defer resp.Body.Close()`, or a
// deferred closure that closes it). An unclosed body pins the
// underlying connection — it never returns to the transport's idle
// pool — so a frontend fanning thousands of calls across its backends
// leaks sockets until the fleet wedges.
//
// Like spanhygiene, the check is the shared defer rule (release.go): a
// response acquired in a loop body, inside another statement, or with
// its handle discarded is flagged, and so is one closed any other way.
// A response returned to the caller is flagged too; hand the caller the
// decoded body instead. Suppress a deliberate exception with
// //lint:allow httpbody.
var Httpbody = &Analyzer{
	Name: "httpbody",
	Doc:  "http.Response bodies must be closed by a defer right after the error check in client code",
	Run:  runHttpbody,
}

var httpbodyRule = &releaseRule{
	acquires: returnsResponse,
	isHandle: isResponsePtr,
	releases: closedBodyObj,
	noun:     "response",
	release:  func(name string) string { return name + ".Body.Close()" },
}

func runHttpbody(pass *Pass) error {
	return httpbodyRule.run(pass)
}

// closedBodyObj returns the response variable a call closes via
// <resp>.Body.Close(), if any.
func closedBodyObj(pass *Pass, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != "Body" {
		return nil
	}
	id, ok := inner.X.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := objOf(pass, id)
	if obj == nil || !isResponsePtr(obj.Type()) {
		return nil
	}
	return obj
}

// returnsResponse reports whether the call yields a *net/http.Response,
// alone or in a result tuple.
func returnsResponse(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isResponsePtr(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isResponsePtr(tv.Type)
	}
}

// isResponsePtr reports whether t is *net/http.Response.
func isResponsePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response"
}
