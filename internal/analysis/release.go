package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the one rule spanhygiene, httpbody and gateleak share:
// a tracked resource bound to a local must be released by the defer
// statement directly after its acquisition, or directly after that
// acquisition's `if err != nil` guard. A defer covers every exit of the
// function by the language's own semantics, so an acquisition the rule
// accepts is released on every path without any path reasoning. Every
// other acquisition is flagged:
//
//   - one whose handle is discarded (statement position, or bound to _);
//   - one in a loop body, where a defer runs at function return, not at
//     the iteration end — move the body into a function that defers;
//   - one nested inside another statement (an if or switch init, a call
//     argument, a return, a field store), which has no next statement to
//     hold the defer;
//   - one not followed by the releasing defer, however the function goes
//     on to release it.
//
// Function literals are functions of their own: an acquisition inside a
// closure is checked against the closure's statements, and a closure
// inside a loop does not put its body in that loop.

// A releaseRule names one tracked resource.
type releaseRule struct {
	// acquires reports whether the call yields the resource, alone or
	// in a result tuple.
	acquires func(p *Pass, call *ast.CallExpr) bool
	// isHandle reports whether a result of this type holds the handle.
	isHandle func(t types.Type) bool
	// releases returns the local a call releases, or nil.
	releases func(p *Pass, call *ast.CallExpr) types.Object
	// noun names the resource in messages ("span").
	noun string
	// release spells the releasing call on a handle name ("sp.End()").
	release func(name string) string
}

// run applies the rule to every function, declared or literal, in the
// package.
func (r *releaseRule) run(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					r.checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				r.checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkFunc judges every acquisition in one function body: one that
// stands as a statement of its own by where it stands and what follows
// it, any other as nested.
func (r *releaseRule) checkFunc(pass *Pass, body *ast.BlockStmt) {
	var lists [][]ast.Stmt
	var loops []*ast.BlockStmt // loop bodies of this function
	var calls []*ast.CallExpr  // every acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // checked as a function of its own
		case *ast.BlockStmt:
			lists = append(lists, n.List)
		case *ast.CaseClause:
			lists = append(lists, n.Body)
		case *ast.CommClause:
			lists = append(lists, n.Body)
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		case *ast.CallExpr:
			if r.acquires(pass, n) {
				calls = append(calls, n)
			}
		}
		return true
	})
	judged := map[*ast.CallExpr]bool{}
	for _, list := range lists {
		for i, s := range list {
			call, handle, errObj, ok := r.acquisition(pass, s)
			if !ok {
				continue
			}
			judged[call] = true
			switch {
			case handle == nil:
				pass.Reportf(call.Pos(), "%s handle is discarded, so it can never be released", r.noun)
			case inAny(loops, call.Pos()):
				pass.Reportf(call.Pos(), "%s %s is acquired in a loop body, where a defer runs at function return, not at the iteration end; move the body into a function that defers %s",
					r.noun, handle.Name(), r.release(handle.Name()))
			case !r.deferredNext(pass, list[i+1:], handle, errObj):
				pass.Reportf(call.Pos(), "%s %s is not released by a defer right after its acquisition; add defer %s on the next line (after the error check, if any)",
					r.noun, handle.Name(), r.release(handle.Name()))
			}
		}
	}
	for _, call := range calls {
		if !judged[call] {
			pass.Reportf(call.Pos(), "%s is acquired inside another statement, which leaves no next line for its defer; bind it to a local and defer its release right after",
				r.noun)
		}
	}
}

// inAny reports whether pos lies inside one of the blocks.
func inAny(blocks []*ast.BlockStmt, pos token.Pos) bool {
	for _, b := range blocks {
		if b.Pos() <= pos && pos < b.End() {
			return true
		}
	}
	return false
}

// acquisition matches a statement that is an acquisition of its own:
// the call alone, an assignment of its results, or a var declaration of
// them. handle is the local bound to the resource (nil when it is
// discarded) and errObj the error bound alongside it, if any.
func (r *releaseRule) acquisition(pass *Pass, s ast.Stmt) (call *ast.CallExpr, handle, errObj types.Object, ok bool) {
	var lhs []*ast.Ident
	var rhs ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		rhs = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return nil, nil, nil, false
		}
		for _, l := range s.Lhs {
			id, isID := l.(*ast.Ident)
			if !isID {
				return nil, nil, nil, false // a store into a field or element
			}
			lhs = append(lhs, id)
		}
		rhs = s.Rhs[0]
	case *ast.DeclStmt:
		gd, isGen := s.Decl.(*ast.GenDecl)
		if !isGen || len(gd.Specs) != 1 {
			return nil, nil, nil, false
		}
		vs, isVal := gd.Specs[0].(*ast.ValueSpec)
		if !isVal || len(vs.Values) != 1 {
			return nil, nil, nil, false
		}
		lhs, rhs = vs.Names, vs.Values[0]
	default:
		return nil, nil, nil, false
	}
	call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
	if !isCall || !r.acquires(pass, call) {
		return nil, nil, nil, false
	}
	results := pass.Info.TypeOf(call)
	for i, id := range lhs {
		t := results
		if tup, isTup := results.(*types.Tuple); isTup {
			t = tup.At(i).Type()
		}
		switch {
		case r.isHandle(t) && id.Name != "_":
			handle = objOf(pass, id)
		case isErrorType(t) && id.Name != "_":
			errObj = objOf(pass, id)
		}
	}
	return call, handle, errObj, true
}

// deferredNext reports whether rest opens with a defer that releases
// handle, optionally after an `if err != nil` guard on errObj.
func (r *releaseRule) deferredNext(pass *Pass, rest []ast.Stmt, handle, errObj types.Object) bool {
	if len(rest) > 0 && errObj != nil && isErrGuard(pass, rest[0], errObj) {
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return false
	}
	d, ok := rest[0].(*ast.DeferStmt)
	if !ok {
		return false
	}
	if r.releases(pass, d.Call) == handle {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && r.releases(pass, call) == handle {
			found = true
		}
		return !found
	})
	return found
}

// isErrGuard reports whether s is `if err != nil { … }`, with no init
// and no else, on the error bound by the acquisition.
func isErrGuard(pass *Pass, s ast.Stmt, errObj types.Object) bool {
	is, ok := s.(*ast.IfStmt)
	if !ok || is.Init != nil || is.Else != nil {
		return false
	}
	be, ok := is.Cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ || !isNilIdent(be.Y) {
		return false
	}
	id, ok := be.X.(*ast.Ident)
	return ok && objOf(pass, id) == errObj
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
