// Package snapshotpin enforces the router's lock-free read discipline
// in internal/shard (the PR 4 three-layer design): read-path methods
// serve from one atomically pinned topology snapshot and never touch
// the topology lock, and no code fans out or merges while holding it.
//
// Two rules:
//
//  1. The Router read methods (TopK, Count, QueryBatch, NumShards,
//     Boundaries, Epoch, Stats, String) must route through the
//     snapshot pin — a call to snapshot() or fanOut() somewhere in the
//     method — and must not acquire Router.mu in any mode. A read that
//     takes the topology lock serializes behind every split, merge and
//     rebalance, and a queued rebalance in turn stalls every read
//     arriving after it; a read that skips the pin races lifecycle
//     passes.
//
//  2. No function in the package may call the read fan-out machinery
//     (Router.fanOut, or a frame's read or scatter) while holding
//     Router.mu. Holding the topology lock across a fan-out blocks
//     every lifecycle pass for the duration of the slowest shard —
//     update paths that hold the read lock coordinate through
//     merge.Parallel instead, which stays legal.
package snapshotpin

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the snapshotpin rule.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotpin",
	Doc:  "internal/shard: read methods pin the topology snapshot and take no topology lock; never fan out a read under Router.mu",
	Run:  run,
}

// readMethods is the closed list of Router reads the snapshot
// discipline covers. DropCache is deliberately absent: it is an
// administrative mutation documented to hold the read lock so a
// lifecycle pass cannot swap in warm rebuilt shards mid-eviction.
var readMethods = map[string]bool{
	"TopK": true, "Count": true, "QueryBatch": true, "NumShards": true,
	"Boundaries": true, "Epoch": true, "Stats": true, "String": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathHasSuffix(pass.Pkg.Path(), "internal/shard") {
		return nil
	}
	for _, sc := range analysis.Scopes(pass.Files) {
		if sc.Decl != nil && isRouterMethod(pass, sc.Decl) && readMethods[sc.Decl.Name.Name] {
			checkReadMethod(pass, sc.Decl)
		}
		checkNoFanOutUnderLock(pass, sc)
	}
	return nil
}

// isRouterMethod reports whether decl is a method with a Router (or
// *Router) receiver from this package.
func isRouterMethod(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil || len(decl.Recv.List) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[decl.Recv.List[0].Type]
	if !ok {
		return false
	}
	pkgPath, name := analysis.NamedType(tv.Type)
	return name == "Router" && pkgPath == pass.Pkg.Path()
}

// isRouterMu matches events on Router's primary mutex.
func isRouterMu(pass *analysis.Pass, ev analysis.MuEvent) bool {
	return ev.OwnerName == "Router" && ev.OwnerPkg == pass.Pkg.Path()
}

// pinsOrFans reports whether the callee is the snapshot pin or the
// machinery that performs one (fanOut pins internally).
func pinsOrFans(pass *analysis.Pass, fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pass.Pkg.Path() {
		return false
	}
	return fn.Name() == "snapshot" || fn.Name() == "fanOut"
}

// isFanOut reports whether the callee is banned under the topology
// lock: one of the package's read fan-out entry points, Router.fanOut
// or a frame's read or scatter.
func isFanOut(pass *analysis.Pass, fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pass.Pkg.Path() {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	switch _, name := analysis.NamedType(recv.Type()); name {
	case "Router":
		return fn.Name() == "fanOut"
	case "frame":
		return fn.Name() == "read" || fn.Name() == "scatter"
	}
	return false
}

// checkReadMethod applies rule 1 to one read method: whole-body scan,
// nested literals included (the fan-out helpers run them inline).
func checkReadMethod(pass *analysis.Pass, decl *ast.FuncDecl) {
	pinned := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ev, isMu := analysis.MuEventOf(pass.TypesInfo, call); isMu {
			if isRouterMu(pass, ev) && ev.Op.Acquires() {
				pass.Reportf(call.Pos(), "read method %s acquires the topology lock; reads must serve from a pinned snapshot (Router.snapshot)", decl.Name.Name)
			}
			return true
		}
		if pinsOrFans(pass, analysis.CalleeFunc(pass.TypesInfo, call)) {
			pinned = true
		}
		return true
	})
	if !pinned {
		pass.Reportf(decl.Name.Pos(), "read method %s never pins the topology snapshot; route reads through Router.snapshot or fanOut", decl.Name.Name)
	}
}

// checkNoFanOutUnderLock applies rule 2 to one scope: linear scan,
// counting Router.mu acquisitions not yet explicitly released (a
// deferred unlock holds for the rest of the body).
func checkNoFanOutUnderLock(pass *analysis.Pass, sc analysis.FuncScope) {
	held := 0
	analysis.WalkScope(sc.Body, func(n ast.Node, deferred bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if ev, isMu := analysis.MuEventOf(pass.TypesInfo, call); isMu {
			if !isRouterMu(pass, ev) || deferred {
				return
			}
			if ev.Op.Acquires() {
				held++
			} else if held > 0 {
				held--
			}
			return
		}
		if held > 0 {
			if fn := analysis.CalleeFunc(pass.TypesInfo, call); isFanOut(pass, fn) {
				pass.Reportf(call.Pos(), "%s calls %s while holding the topology lock; pin a snapshot and release the lock before fanning out", sc.Name(), fn.Name())
			}
		}
	})
}
