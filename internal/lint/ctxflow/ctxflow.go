// Package ctxflow enforces the repo's context-threading contract:
//
//  1. context.Background() and context.TODO() are banned in library code.
//     Every layer threads a caller's context end to end, and below the
//     llmq facade every execution entry point takes one — a Background()
//     deep in the stack silently detaches work from cancellation, which is
//     exactly how a canceled statement used to poison shared batches.
//     Intentional detachment points (the batcher's coalesced run, the
//     router's health loop, and the facade's ExecSQL, RunQuery and
//     RunExperiment convenience forms) carry a `//llmqlint:detached`
//     directive on or above the call line.
//     Package main (cmd/, examples/) is exempt: a process entry point is
//     where a root context legitimately begins.
//
//  2. A context.Context parameter must come first (after the receiver), in
//     every function, method, function literal, interface method, and
//     func-typed field — the standard library convention the whole API
//     follows (RunBatch(ctx, spec), ExecContext(ctx, ...), StageRunner).
package ctxflow

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "ban context.Background/TODO in library code (annotate intentional " +
		"detachment points //llmqlint:detached) and require context.Context " +
		"to be the first parameter",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg != nil && pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		dirs := analysis.DirectivesFor(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if isMain {
					return true
				}
				sel, ok := node.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
					return true
				}
				if !analysis.IsPkgIdent(pass.TypesInfo, sel.X, "context") {
					return true
				}
				if dirs.Has(node.Pos(), "detached") {
					return true
				}
				pass.Reportf(node.Pos(),
					"context.%s in library code: thread the caller's context, or mark a deliberate detachment point with //llmqlint:detached",
					sel.Sel.Name)
			case *ast.FuncType:
				checkCtxFirst(pass, node)
			}
			return true
		})
	}
	return nil
}

// checkCtxFirst reports a context.Context parameter that is not the first
// parameter of ft.
func checkCtxFirst(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	index := 0
	for _, field := range ft.Params.List {
		// A field may declare several names (a, b T) or none (plain type).
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		if isContextType(pass, field.Type) && index > 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
			return
		}
		index += width
	}
}

func isContextType(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	return analysis.ContainsNamed(tv.Type, "context", "Context")
}
