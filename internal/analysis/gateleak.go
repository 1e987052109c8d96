package analysis

import (
	"go/ast"
	"go/types"
)

// Gateleak enforces the admission-gate contract the serving layer's
// backpressure depends on: the release func returned by
// par.Gate.Acquire must be bound to a local and deferred right after
// the acquisition's error check (`defer release()`, or a deferred
// closure that calls it). A leaked release pins a gate slot forever;
// with a bounded gate the fleet's admission capacity ratchets down
// until every request queues and times out.
//
// The check is the shared defer rule (release.go): a slot acquired in
// a loop body, inside another statement, or with its release discarded
// is flagged, and so is one released any other way, hedge losers and
// error paths included. Suppress a deliberate exception with
// //lint:allow gateleak.
var Gateleak = &Analyzer{
	Name: "gateleak",
	Doc:  "par.Gate.Acquire release funcs must be deferred right after the error check",
	Run:  runGateleak,
}

var gateleakRule = &releaseRule{
	acquires: isGateAcquire,
	isHandle: func(t types.Type) bool {
		_, ok := t.(*types.Signature)
		return ok
	},
	releases: releaseCallObj,
	noun:     "gate release",
	release:  func(name string) string { return name + "()" },
}

func runGateleak(pass *Pass) error {
	return gateleakRule.run(pass)
}

// isGateAcquire reports whether call is par.Gate.Acquire.
func isGateAcquire(pass *Pass, call *ast.CallExpr) bool {
	pkg, typ, method := methodOn(pass.Info, call)
	return pathBase(pkg) == "par" && typ == "Gate" && method == "Acquire"
}

// releaseCallObj returns the tracked release variable a call consumes:
// a direct call of the bound func value, `release()`.
func releaseCallObj(pass *Pass, call *ast.CallExpr) types.Object {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := objOf(pass, id)
	if obj == nil {
		return nil
	}
	if _, ok := obj.Type().(*types.Signature); !ok {
		return nil
	}
	return obj
}
