package analysis

// Mutex-event scanning shared by the lock-discipline analyzers
// (lockorder, snapshotpin). The invariants they check are phrased in
// terms of the convention the router documents: the guarded type's
// PRIMARY mutex is a field literally named "mu" (shard.mu, Router.mu),
// while auxiliary leaf locks carry descriptive names (guardMu,
// statsMu) precisely so they are visibly outside the ordering
// protocol. The scanners therefore match calls of the shape
// `owner.mu.Lock()` and classify them by the owner's named type.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// MuOp is one primary-mutex operation.
type MuOp int

const (
	MuLock MuOp = iota
	MuUnlock
	MuRLock
	MuRUnlock
)

// Acquires reports whether the op takes the lock (either mode).
func (op MuOp) Acquires() bool { return op == MuLock || op == MuRLock }

// MuEvent is one `owner.mu.<op>()` call found in a scope.
type MuEvent struct {
	Pos       token.Pos
	Op        MuOp
	OwnerPkg  string // package path of the owner's named type
	OwnerName string // name of the owner's named type ("shard", "Router")
	Deferred  bool   // the call is the operand of a defer statement
}

// FuncScope is one function body analyzed as an independent lock
// scope: a declaration or a function literal. Nested literals are
// separate scopes — a literal's body runs when the literal is invoked,
// not where it is written, so its lock events must not leak into the
// enclosing scope's ordering.
type FuncScope struct {
	// Decl is set for declared functions and methods, Lit for literals.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
}

// Name describes the scope for diagnostics.
func (s FuncScope) Name() string {
	if s.Decl != nil {
		return s.Decl.Name.Name
	}
	return "func literal"
}

// Scopes returns every function body in the files, declarations and
// literals alike, each as its own scope.
func Scopes(files []*ast.File) []FuncScope {
	var out []FuncScope
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, FuncScope{Decl: fn, Body: fn.Body})
				}
			case *ast.FuncLit:
				out = append(out, FuncScope{Lit: fn, Body: fn.Body})
			}
			return true
		})
	}
	return out
}

// WalkScope visits the nodes of body in source order, excluding the
// bodies of nested function literals, and reports for each call
// whether it is directly deferred.
func WalkScope(body *ast.BlockStmt, visit func(n ast.Node, deferred bool)) {
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	ast.Inspect(body, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false // separate scope; Scopes yields it on its own
		}
		if call, ok := m.(*ast.CallExpr); ok {
			visit(m, deferred[call])
			return true
		}
		visit(m, false)
		return true
	})
}

// MuEvents collects the primary-mutex events of one scope, in source
// order.
func MuEvents(info *types.Info, body *ast.BlockStmt) []MuEvent {
	var out []MuEvent
	WalkScope(body, func(n ast.Node, deferred bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		ev, ok := MuEventOf(info, call)
		if !ok {
			return
		}
		ev.Deferred = deferred
		out = append(out, ev)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// MuEventOf matches `owner.mu.Lock()` style calls.
func MuEventOf(info *types.Info, call *ast.CallExpr) (MuEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return MuEvent{}, false
	}
	var op MuOp
	switch sel.Sel.Name {
	case "Lock":
		op = MuLock
	case "Unlock":
		op = MuUnlock
	case "RLock":
		op = MuRLock
	case "RUnlock":
		op = MuRUnlock
	default:
		return MuEvent{}, false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok || field.Sel.Name != "mu" {
		return MuEvent{}, false
	}
	tv, ok := info.Types[field.X]
	if !ok {
		return MuEvent{}, false
	}
	pkgPath, name := NamedType(tv.Type)
	if name == "" {
		return MuEvent{}, false
	}
	return MuEvent{Pos: call.Pos(), Op: op, OwnerPkg: pkgPath, OwnerName: name}, true
}
