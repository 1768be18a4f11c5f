// Package allocfree enforces the static half of the //topk:nomalloc
// contract. A function annotated with the directive is a hot-path
// promise — the sort kernel's scatter pass, the histogram Observe
// path, the shard router's snapshot reads — and the promise is "zero
// allocations per call, every call". This analyzer rejects every
// construct that is an allocation site BY SHAPE, before the compiler's
// escape analysis even gets a vote:
//
//   - make, new, append — append is banned even when capacity would
//     suffice at runtime, because "usually doesn't grow" is exactly the
//     regression this gate exists to catch; annotated code indexes into
//     pre-sized backing instead.
//   - function literals and `go` statements — closures capture, and a
//     goroutine allocates its stack.
//   - &CompositeLit — a composite literal whose address is taken heads
//     for the heap the moment it outlives the frame, and proving it
//     doesn't is the escape checker's job, not a reader's.
//   - boxing a non-pointer, non-constant value into an interface
//     (call arguments, assignments, returns) — the conversion
//     materializes the value in the heap-allocated iface data word.
//
// The dynamic half — compiler escape diagnostics via `go build
// -gcflags=-m`, which catches what shape analysis cannot (a &T taken
// in a callee, fmt varargs) — lives in internal/analysis/escape and
// runs as the `topkvet escapecheck` subcommand. The testing half —
// testing.AllocsPerRun == 0 over every annotated function — lives next
// to the annotated code. All three must agree before an annotation is
// believed.
package allocfree

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the allocfree rule.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "functions annotated //topk:nomalloc contain no static allocation sites (make/new/append/closures/go/&lit/interface boxing)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !analysis.HasDirective(fn.Doc, analysis.NomallocDirective) {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is //topk:nomalloc but starts a goroutine; a new goroutine allocates its stack", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s is //topk:nomalloc but contains a function literal; closures allocate their captures", name)
			return false // the literal's body is the closure's problem
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(), "%s is //topk:nomalloc but takes the address of a composite literal; &T{...} is a heap candidate", name)
			}
		case *ast.CallExpr:
			checkCall(pass, name, n)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) == len(n.Rhs) {
					checkBox(pass, name, rhs, typeOf(pass, n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type == nil {
				break
			}
			dst := typeOf(pass, n.Type)
			for _, v := range n.Values {
				checkBox(pass, name, v, dst)
			}
		case *ast.ReturnStmt:
			checkReturn(pass, name, fn.Type, n)
		}
		return true
	})
}

// checkCall flags allocation builtins and interface boxing at call
// arguments.
func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s is //topk:nomalloc but calls %s; allocate the backing outside the annotated function", name, id.Name)
			case "append":
				pass.Reportf(call.Pos(), "%s is //topk:nomalloc but calls append; growth allocates — index into pre-sized backing instead", name)
			}
			return
		}
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // conversion, not a call
	}
	for i, arg := range call.Args {
		checkBox(pass, name, arg, paramType(sig, i, call.Ellipsis.IsValid()))
	}
}

// paramType returns the type the i-th argument lands in, unrolling the
// variadic tail: for f(xs ...T) the arguments past the fixed params
// each box/copy into T (unless the call spreads a slice with ...).
func paramType(sig *types.Signature, i int, spread bool) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() && i >= n-1 {
		if spread {
			return sig.Params().At(n - 1).Type()
		}
		return sig.Params().At(n - 1).Type().(*types.Slice).Elem()
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

func checkReturn(pass *analysis.Pass, name string, ft *ast.FuncType, ret *ast.ReturnStmt) {
	if ft.Results == nil {
		return
	}
	var results []types.Type
	for _, field := range ft.Results.List {
		t := typeOf(pass, field.Type)
		k := len(field.Names)
		if k == 0 {
			k = 1
		}
		for range k {
			results = append(results, t)
		}
	}
	if len(ret.Results) != len(results) {
		return // naked return or multi-value call passthrough
	}
	for i, expr := range ret.Results {
		checkBox(pass, name, expr, results[i])
	}
}

// checkBox reports expr converting into a heap-boxed interface value:
// destination is an interface, the source is a concrete non-pointer
// type, and the value is not a compile-time constant (constants box
// into static data, and nil carries nothing).
func checkBox(pass *analysis.Pass, name string, expr ast.Expr, dst types.Type) {
	if dst == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	e := ast.Unparen(expr)
	if tv, ok := pass.TypesInfo.Types[e]; ok && (tv.Value != nil || tv.IsNil()) {
		return
	}
	if id, ok := e.(*ast.Ident); ok {
		if _, isConst := pass.TypesInfo.ObjectOf(id).(*types.Const); isConst {
			return
		}
	}
	src := typeOf(pass, e)
	if src == nil {
		return
	}
	switch src.Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return // interface-to-interface and pointer boxing don't allocate
	}
	pass.Reportf(expr.Pos(), "%s is //topk:nomalloc but boxes a %s into an interface; the conversion allocates the iface payload", name, src.String())
}

// typeOf resolves an expression's type, falling back to the object
// maps for bare identifiers — Types does not record every identifier
// (definitions on the left of := live in Defs only).
func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}
