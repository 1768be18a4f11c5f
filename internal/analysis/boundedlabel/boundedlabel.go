// Package boundedlabel keeps the telemetry label space closed. The obs
// histogram vecs key series by label string, and every distinct label
// allocates a histogram that lives for the process lifetime — a label
// derived from request data (paths, query params, header values) is an
// unbounded-cardinality memory leak an attacker can drive with a URL
// loop. That is exactly why obs keeps the endpointLabels allowlist and
// funnels paths through obs.EndpointLabel.
//
// The rule, applied at every Vec.Observe / Telemetry.TimeOpCtx call
// site in the tree: the label argument must not be request-derived. The
// label's provenance is traced through the shared dataflow graph
// (internal/analysis/dataflow) to sourceDepth assignment hops, so
// `p := r.URL.Path; q := p; vec.Observe(q, d)` is flagged two hops
// from the request where the old per-analyzer scan stopped after one.
// A label is flagged when any expression in its source chain mentions
// *http.Request, http.Header, *url.URL or url.Values. String
// constants, obs.EndpointLabel(...) results, and config-derived values
// (node addresses, shard names: bounded by deployment, not by
// traffic) all pass — a bounded expression anywhere in the chain
// clears the label, because the value passed through the clamp.
package boundedlabel

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the boundedlabel rule.
var Analyzer = &analysis.Analyzer{
	Name: "boundedlabel",
	Doc:  "metric labels come from the closed allowlist, never from request-derived strings",
	Run:  run,
}

// sourceDepth bounds the provenance walk. Three hops cover every alias
// chain the tree (and its testdata) uses; deeper chains through string
// locals are vanishingly rare and err toward a miss, not a false
// positive.
const sourceDepth = 3

func run(pass *analysis.Pass) error {
	graph := dataflow.New(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			label, method, ok := labelArg(pass, call)
			if !ok {
				return true
			}
			checkLabel(pass, graph, label, method)
			return true
		})
	}
	return nil
}

// labelArg returns the label argument of an obs label-keyed call:
// (*obs.Vec).Observe(label, d) or (*obs.Telemetry).TimeOpCtx(ctx, op).
func labelArg(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", false
	}
	pkgPath, recvName := analysis.NamedType(sig.Recv().Type())
	if !analysis.PathHasSuffix(pkgPath, "internal/obs") {
		return nil, "", false
	}
	switch {
	case recvName == "Vec" && fn.Name() == "Observe" && len(call.Args) == 2:
		return call.Args[0], "Vec.Observe", true
	case recvName == "Telemetry" && fn.Name() == "TimeOpCtx" && len(call.Args) == 2:
		return call.Args[1], "Telemetry.TimeOpCtx", true
	}
	return nil, "", false
}

// checkLabel traces the label through the dataflow graph and applies
// the rule over the whole source chain: bounded anywhere clears
// (EndpointLabel is the clamp; a constant is closed by definition),
// request-derived anywhere flags.
func checkLabel(pass *analysis.Pass, graph *dataflow.Graph, label ast.Expr, method string) {
	exprs := graph.Sources(pass.TypesInfo, label, sourceDepth)
	for _, e := range exprs {
		if isBounded(pass, e) {
			return
		}
	}
	for _, e := range exprs {
		if mentionsRequestData(pass, e) {
			pass.Reportf(label.Pos(), "%s label derives from request data; label the series from the closed allowlist (a constant or obs.EndpointLabel)", method)
			return
		}
	}
}

// isBounded recognizes the explicitly-safe label sources: untyped or
// typed string constants and the obs.EndpointLabel clamp.
func isBounded(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil &&
		analysis.PathHasSuffix(fn.Pkg().Path(), "internal/obs") && fn.Name() == "EndpointLabel"
}

// mentionsRequestData reports whether any subexpression's type is one
// of the request-carrier types, so r.URL.Path, r.Header.Get(...), and
// q.Get("metric") are all caught via their receiver chains.
func mentionsRequestData(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sub, ok := n.(ast.Expr)
		if !ok || found {
			return !found
		}
		tv, ok := pass.TypesInfo.Types[sub]
		if !ok {
			return true
		}
		pkgPath, name := analysis.NamedType(tv.Type)
		switch pkgPath + "." + name {
		case "net/http.Request", "net/http.Header", "net/url.URL", "net/url.Values":
			found = true
		}
		return !found
	})
	return found
}
