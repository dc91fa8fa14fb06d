// Benchmarks regenerating every table and figure of the paper's evaluation
// (Experiments lists the IDs; the internal/bench registry maps each to its
// paper artifact). Each benchmark executes the corresponding experiment end
// to end — data generation, scheduling, serving simulation, and report
// formatting — at a reduced scale; run cmd/llmqbench -scale 1 for the
// full-scale numbers.
package llmq

import (
	"testing"
)

// benchCfg keeps per-iteration cost moderate while still exercising cache
// eviction (the pool shrinks with scale).
var benchCfg = ExperimentConfig{Scale: 0.02, Seed: 1, BootstrapReps: 500, OPHRNodeBudget: 300_000}

func benchmarkExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunExperiment(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// Fig. 1a/1b case studies (Sec. 3.2).
func BenchmarkFig1a(b *testing.B) { benchmarkExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B) { benchmarkExperiment(b, "fig1b") }

// Table 1 dataset summary (Sec. 6.1.1).
func BenchmarkTable1(b *testing.B) { benchmarkExperiment(b, "table1") }

// Fig. 3a filter-query latency; Fig. 3b projection + RAG latency (Sec. 6.2).
func BenchmarkFig3a(b *testing.B) { benchmarkExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B) { benchmarkExperiment(b, "fig3b") }

// Fig. 4 multi-LLM + aggregation latency (Sec. 6.2).
func BenchmarkFig4(b *testing.B) { benchmarkExperiment(b, "fig4") }

// Fig. 5 Llama-3-70B filter latency on 8×L4 (Sec. 6.2).
func BenchmarkFig5(b *testing.B) { benchmarkExperiment(b, "fig5") }

// Table 2 prefix hit rates (Sec. 6.2).
func BenchmarkTable2(b *testing.B) { benchmarkExperiment(b, "table2") }

// Table 3 measured API costs; Table 4 estimated savings (Sec. 6.3).
func BenchmarkTable3(b *testing.B) { benchmarkExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchmarkExperiment(b, "table4") }

// Fig. 6 accuracy bootstrap (Sec. 6.4).
func BenchmarkFig6(b *testing.B) { benchmarkExperiment(b, "fig6") }

// Table 5 solver time (Sec. 6.5).
func BenchmarkTable5(b *testing.B) { benchmarkExperiment(b, "table5") }

// Table 6 GGR vs OPHR (Appendix D.1).
func BenchmarkTable6(b *testing.B) { benchmarkExperiment(b, "table6") }

// Table 7 Llama-3.2-1B ablation (Appendix D.2).
func BenchmarkTable7(b *testing.B) { benchmarkExperiment(b, "table7") }

// Design-choice ablations beyond the paper (the ablation_* IDs of the
// internal/bench registry).
func BenchmarkAblationFD(b *testing.B)    { benchmarkExperiment(b, "ablation_fd") }
func BenchmarkAblationDepth(b *testing.B) { benchmarkExperiment(b, "ablation_depth") }
func BenchmarkAblationBlock(b *testing.B) { benchmarkExperiment(b, "ablation_block") }
func BenchmarkAblationFixed(b *testing.B) { benchmarkExperiment(b, "ablation_fixed") }

// BenchmarkReorderGGR isolates the solver itself on the Movies dataset — the
// quantity Table 5 reports.
func BenchmarkReorderGGR(b *testing.B) {
	t, err := Dataset("Movies", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reorder(t, ReorderOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
