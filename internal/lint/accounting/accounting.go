// Package accounting guards the serving pipeline's conservation laws at
// their weakest point: partially keyed composite literals. BatchResult,
// StageResult, and their kin flow through merges (cluster.Router sums
// the parts of a split batch), attributions (the runtime copies batch metrics into member
// results), and the /v1/metrics endpoint; a constructor that keys some
// counting fields but silently omits another ships a zero that corrupts
// fleet accounting without failing any functional test.
//
// The rule: for a type annotated `//llmqlint:accounting` (on its type
// declaration) — or registered in knownTypes for cross-package use, since
// this suite has no fact export — a keyed composite literal that sets AT
// LEAST ONE counting field must set ALL counting fields. Counting fields are
// the fields of basic numeric type (ints, floats). Two idioms stay legal:
//
//	merged := BatchResult{}            // all-zero accumulator: sets nothing
//	BatchResult{Metrics: m,
//	    ModelCalls: n}                 // complete: every counter keyed
//
// and an intentionally partial literal can say so with //llmqlint:partial on
// the literal's first line. Unkeyed (positional) literals are already
// exhaustive by construction and are skipped.
package accounting

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the accounting pass.
var Analyzer = &analysis.Analyzer{
	Name: "accounting",
	Doc: "keyed composite literals of //llmqlint:accounting types must set " +
		"every numeric counting field or none (accumulator start); annotate " +
		"deliberate exceptions //llmqlint:partial",
	Run: run,
}

// knownTypes registers accounting types by qualified name for literals
// built OUTSIDE the defining package: the mini framework has no cross-
// package fact propagation, so the canonical result types are listed here
// (each also carries the in-source annotation for readers).
var knownTypes = map[string]bool{
	"repro/internal/backend.BatchResult":      true,
	"repro/internal/backend.RecordedBatch":    true,
	"repro/internal/backend.WireResult":       true,
	"repro/internal/cluster.WorkerMetrics":    true,
	"repro/internal/cluster.Metrics":          true,
	"repro/internal/faults.Stats":             true,
	"repro/internal/server.WorkerStats":       true,
	"repro/internal/server.WorkerClientStats": true,
	"repro/internal/query.StageResult":        true,
	"repro/internal/llmsim.Metrics":           true,
	"repro/internal/kvcache.Stats":            true,
	"repro/internal/runtime.ClientMetrics":    true,
	"repro/internal/runtime.WaitHistogram":    true,
	"repro/internal/obs.SpanTree":             true,
	"repro/internal/obs.StageObservation":     true,
	"repro/internal/obs.StageRollup":          true,
}

func run(pass *analysis.Pass) error {
	local := annotatedLocalTypes(pass)
	for _, file := range pass.Files {
		dirs := analysis.DirectivesFor(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || tv.Type == nil {
				return true
			}
			named := namedOf(tv.Type)
			if named == nil || !isAccounting(named, local) {
				return true
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			checkLiteral(pass, lit, named, st, dirs)
			return true
		})
	}
	return nil
}

// checkLiteral applies the all-or-none counting rule to one keyed literal.
func checkLiteral(pass *analysis.Pass, lit *ast.CompositeLit, named *types.Named, st *types.Struct, dirs *analysis.Directives) {
	if len(lit.Elts) == 0 {
		return // zero-value accumulator start
	}
	keyed := make(map[string]bool)
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal: exhaustive by construction
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			keyed[id.Name] = true
		}
	}
	counters := countingFields(st)
	any := false
	for _, c := range counters {
		if keyed[c] {
			any = true
			break
		}
	}
	if !any {
		return // literal touches no counters: not a constructor of accounting state
	}
	if dirs.Has(lit.Pos(), "partial") {
		return
	}
	var missing []string
	for _, c := range counters {
		if !keyed[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(lit.Pos(),
			"%s literal sets some counting fields but omits %s: set every counter (zero is fine, but say so) or annotate //llmqlint:partial",
			named.Obj().Name(), strings.Join(missing, ", "))
	}
}

// countingFields lists st's fields of basic numeric type, in declaration
// order.
func countingFields(st *types.Struct) []string {
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		b, ok := f.Type().Underlying().(*types.Basic)
		if !ok {
			continue
		}
		if b.Info()&(types.IsInteger|types.IsFloat) != 0 {
			out = append(out, f.Name())
		}
	}
	return out
}

// annotatedLocalTypes collects types in this package whose declaration
// carries //llmqlint:accounting.
func annotatedLocalTypes(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				text := analysis.CommentText(gd.Doc, ts.Doc, ts.Comment)
				if !strings.Contains(text, "llmqlint:accounting") {
					continue
				}
				if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

func isAccounting(named *types.Named, local map[types.Object]bool) bool {
	obj := named.Obj()
	if obj == nil {
		return false
	}
	if local[obj] {
		return true
	}
	if obj.Pkg() == nil {
		return false
	}
	return knownTypes[obj.Pkg().Path()+"."+obj.Name()]
}

func namedOf(t types.Type) *types.Named {
	switch u := t.(type) {
	case *types.Named:
		return u
	case *types.Pointer:
		return namedOf(u.Elem())
	}
	return nil
}
