package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/runtime"
)

// renderPrometheus serializes a runtime metrics snapshot in the Prometheus
// text exposition format (version 0.0.4), hand-rolled so the server carries
// no client-library dependency. Every metric family appears with exactly one
// HELP and one TYPE line; per-client and per-class series are labeled rows
// under one family; the admission-wait histograms are converted from the
// runtime's exclusive buckets to Prometheus's cumulative le-buckets. Map
// iteration orders are sorted, so the output is deterministic.
func renderPrometheus(m runtime.Metrics) string {
	var b strings.Builder
	w := promWriter{b: &b}

	// Fleet counters. Prometheus counters must be monotonic, which every
	// runtime counter is (the runtime never resets them while alive).
	w.family("llmq_statements_submitted_total", "counter", "Statements admitted into the pipeline.")
	w.row("llmq_statements_submitted_total", "", float64(m.StatementsSubmitted))
	w.family("llmq_statements_done_total", "counter", "Statements that reached a terminal state.")
	w.row("llmq_statements_done_total", "", float64(m.StatementsDone))
	w.family("llmq_statements_failed_total", "counter", "Statements that failed execution.")
	w.row("llmq_statements_failed_total", "", float64(m.StatementsFailed))
	w.family("llmq_statements_canceled_total", "counter", "Statements whose context died.")
	w.row("llmq_statements_canceled_total", "", float64(m.StatementsCanceled))
	w.family("llmq_abandoned_resolved_total", "counter", "Result-cache reservations settled by the detached resolver after cancellation.")
	w.row("llmq_abandoned_resolved_total", "", float64(m.AbandonedResolved))
	w.family("llmq_quota_rejections_total", "counter", "Statements refused admission on overdrawn quota.")
	w.row("llmq_quota_rejections_total", "", float64(m.QuotaRejections))

	w.family("llmq_plan_cache_hits_total", "counter", "Statement preparations served from the parse+plan cache.")
	w.row("llmq_plan_cache_hits_total", "", float64(m.PlanCacheHits))
	w.family("llmq_plan_cache_misses_total", "counter", "Statement preparations that parsed and planned afresh.")
	w.row("llmq_plan_cache_misses_total", "", float64(m.PlanCacheMisses))

	w.family("llmq_result_cache_hits_total", "counter", "Per-row result-cache hits.")
	w.row("llmq_result_cache_hits_total", "", float64(m.CacheHits))
	w.family("llmq_result_cache_misses_total", "counter", "Per-row result-cache misses (rows owned and computed).")
	w.row("llmq_result_cache_misses_total", "", float64(m.CacheMisses))
	w.family("llmq_inflight_deduped_total", "counter", "Rows that piggybacked on a concurrent identical call.")
	w.row("llmq_inflight_deduped_total", "", float64(m.InflightDeduped))
	w.family("llmq_rows_deduped_total", "counter", "Duplicate rows collapsed within one stage.")
	w.row("llmq_rows_deduped_total", "", float64(m.RowsDeduped))

	w.family("llmq_batches_total", "counter", "Engine runs.")
	w.row("llmq_batches_total", "", float64(m.Batches))
	w.family("llmq_coalesced_runs_total", "counter", "Engine runs that merged rows from more than one statement.")
	w.row("llmq_coalesced_runs_total", "", float64(m.CoalescedRuns))
	w.family("llmq_coalesced_rows_total", "counter", "Rows served in coalesced runs.")
	w.row("llmq_coalesced_rows_total", "", float64(m.CoalescedRows))
	w.family("llmq_llm_calls_total", "counter", "Rows actually sent to a serving engine.")
	w.row("llmq_llm_calls_total", "", float64(m.LLMCalls))
	w.family("llmq_direct_stages_total", "counter", "Stages executed outside the cache/batch path.")
	w.row("llmq_direct_stages_total", "", float64(m.DirectStages))
	w.family("llmq_batch_windows_shortened_total", "counter", "Batch windows whose close was pulled forward by a nearer-horizon joiner.")
	w.row("llmq_batch_windows_shortened_total", "", float64(m.BatchWindowsShortened))

	w.family("llmq_reorder_cache_hits_total", "counter", "GGR reorder-cache hits.")
	w.row("llmq_reorder_cache_hits_total", "", float64(m.ReorderCacheHits))
	w.family("llmq_reorder_cache_misses_total", "counter", "GGR reorder-cache misses.")
	w.row("llmq_reorder_cache_misses_total", "", float64(m.ReorderCacheMisses))
	w.family("llmq_reorder_solves_total", "counter", "GGR solver runs performed.")
	w.row("llmq_reorder_solves_total", "", float64(m.ReorderSolves))
	w.family("llmq_prompt_cache_hits_total", "counter", "Prompt-memo lookups (one per stage prefix and row cell) served from memoized tokens.")
	w.row("llmq_prompt_cache_hits_total", "", float64(m.PromptCacheHits))
	w.family("llmq_prompt_cache_misses_total", "counter", "Prompt-memo lookups (one per stage prefix and row cell) tokenized afresh.")
	w.row("llmq_prompt_cache_misses_total", "", float64(m.PromptCacheMisses))

	// Distributed-tier families, present only when the serving backend is a
	// cluster.Router.
	if m.Cluster != nil {
		c := m.Cluster
		addrs := make([]string, 0, len(c.Workers))
		for a := range c.Workers {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		workerRows := func(name, typ, help string, get func(cluster.WorkerMetrics) float64) {
			w.family(name, typ, help)
			for _, a := range addrs {
				w.row(name, labels("worker", a), get(c.Workers[a]))
			}
		}
		workerRows("llmq_cluster_worker_batches_total", "counter", "Successful batch attempts per worker.",
			func(wm cluster.WorkerMetrics) float64 { return float64(wm.Batches) })
		workerRows("llmq_cluster_worker_retries_total", "counter", "Batch attempts per worker made after a failure of their part.",
			func(wm cluster.WorkerMetrics) float64 { return float64(wm.Retries) })
		workerRows("llmq_cluster_worker_errors_total", "counter", "Failed batch attempts per worker.",
			func(wm cluster.WorkerMetrics) float64 { return float64(wm.Errors) })
		workerRows("llmq_cluster_worker_markdowns_total", "counter", "Health mark-down transitions per worker.",
			func(wm cluster.WorkerMetrics) float64 { return float64(wm.Markdowns) })
		workerRows("llmq_cluster_worker_budget_denied_total", "counter", "Retries per worker refused by the router-wide retry budget.",
			func(wm cluster.WorkerMetrics) float64 { return float64(wm.BudgetDenied) })
		workerRows("llmq_cluster_worker_inflight", "gauge", "Batch parts holding their capacity slot per worker.",
			func(wm cluster.WorkerMetrics) float64 { return float64(wm.InFlight) })
		workerRows("llmq_cluster_worker_down", "gauge", "1 while the worker is marked down.",
			func(wm cluster.WorkerMetrics) float64 { return boolGauge(wm.Down) })
		workerRows("llmq_cluster_breaker_state", "gauge", "Worker circuit-breaker state: 0 closed, 1 half-open, 2 open.",
			func(wm cluster.WorkerMetrics) float64 { return breakerGauge(wm.Breaker) })
		workerRows("llmq_cluster_breaker_opens_total", "counter", "Circuit-open transitions per worker.",
			func(wm cluster.WorkerMetrics) float64 { return float64(wm.Markdowns) })
		w.family("llmq_cluster_ring_moves_total", "counter", "Moves along the ring: batches placed off an open owner, parts served by failover.")
		w.row("llmq_cluster_ring_moves_total", "", float64(c.RingMoves))
		w.family("llmq_cluster_hot_replications_total", "counter", "Batches that replicated a hot stage onto a second worker.")
		w.row("llmq_cluster_hot_replications_total", "", float64(c.HotReplications))
		w.family("llmq_cluster_hedge_launched_total", "counter", "Hedged batch dispatches launched.")
		w.row("llmq_cluster_hedge_launched_total", "", float64(c.HedgesLaunched))
		w.family("llmq_cluster_hedge_wins_total", "counter", "Hedge races the hedge answered first.")
		w.row("llmq_cluster_hedge_wins_total", "", float64(c.HedgeWins))
		w.family("llmq_cluster_hedge_canceled_total", "counter", "Hedge races the primary won (hedge canceled).")
		w.row("llmq_cluster_hedge_canceled_total", "", float64(c.HedgesCanceled))
		w.family("llmq_cluster_rebalance_joins_total", "counter", "Workers joined to the live ring.")
		w.row("llmq_cluster_rebalance_joins_total", "", float64(c.RebalanceJoins))
		w.family("llmq_cluster_rebalance_leaves_total", "counter", "Workers removed from the live ring.")
		w.row("llmq_cluster_rebalance_leaves_total", "", float64(c.RebalanceLeaves))
	}

	w.family("llmq_jct_seconds_total", "counter", "Virtual serving time summed over engine runs.")
	w.row("llmq_jct_seconds_total", "", m.TotalJCT)
	w.family("llmq_solver_seconds_total", "counter", "Scheduling time summed over engine runs.")
	w.row("llmq_solver_seconds_total", "", m.TotalSolverSeconds)
	w.family("llmq_prompt_tokens_total", "counter", "Prompt tokens submitted to engines.")
	w.row("llmq_prompt_tokens_total", "", float64(m.PromptTokens))
	w.family("llmq_matched_tokens_total", "counter", "Prompt tokens served from the prefix cache.")
	w.row("llmq_matched_tokens_total", "", float64(m.MatchedTokens))
	w.family("llmq_prefilled_tokens_total", "counter", "Prompt tokens prefilled by engines.")
	w.row("llmq_prefilled_tokens_total", "", float64(m.PrefilledTokens))

	// Per-client labeled families.
	if len(m.Clients) > 0 {
		ids := make([]string, 0, len(m.Clients))
		for id := range m.Clients {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		clientRows := func(name, typ, help string, get func(runtime.ClientMetrics) float64) {
			w.family(name, typ, help)
			for _, id := range ids {
				w.row(name, labels("client", id), get(m.Clients[runtime.ClientID(id)]))
			}
		}
		clientRows("llmq_client_statements_total", "counter", "Admitted statements per client.",
			func(c runtime.ClientMetrics) float64 { return float64(c.Statements) })
		clientRows("llmq_client_canceled_total", "counter", "Canceled statements per client.",
			func(c runtime.ClientMetrics) float64 { return float64(c.Canceled) })
		clientRows("llmq_client_quota_rejections_total", "counter", "Quota rejections per client.",
			func(c runtime.ClientMetrics) float64 { return float64(c.QuotaRejections) })
		clientRows("llmq_client_llm_calls_total", "counter", "Model rows charged per client.",
			func(c runtime.ClientMetrics) float64 { return float64(c.LLMCalls) })
		clientRows("llmq_client_prompt_tokens_total", "counter", "Prompt tokens charged per client.",
			func(c runtime.ClientMetrics) float64 { return float64(c.PromptTokens) })
		clientRows("llmq_client_jct_seconds_total", "counter", "Execution time summed per client.",
			func(c runtime.ClientMetrics) float64 { return c.JCTSeconds })
		clientRows("llmq_client_queue_wait_seconds_total", "counter", "Admission-queue wait summed per client.",
			func(c runtime.ClientMetrics) float64 { return c.QueueWaitSeconds })
	}

	// Admission-wait histograms, one labeled series set per service class.
	// The runtime's buckets are exclusive; Prometheus buckets are cumulative.
	if len(m.QueueWait) > 0 {
		classes := make([]string, 0, len(m.QueueWait))
		for c := range m.QueueWait {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		w.family("llmq_queue_wait_seconds", "histogram", "Admission-queue wait by service class.")
		for _, c := range classes {
			h := m.QueueWait[runtime.Class(c)]
			cum := float64(h.Le1ms)
			w.row("llmq_queue_wait_seconds_bucket", labels("class", c, "le", "0.001"), cum)
			cum += float64(h.Le10ms)
			w.row("llmq_queue_wait_seconds_bucket", labels("class", c, "le", "0.01"), cum)
			cum += float64(h.Le100ms)
			w.row("llmq_queue_wait_seconds_bucket", labels("class", c, "le", "0.1"), cum)
			cum += float64(h.Le1s)
			w.row("llmq_queue_wait_seconds_bucket", labels("class", c, "le", "1"), cum)
			w.row("llmq_queue_wait_seconds_bucket", labels("class", c, "le", "+Inf"), float64(h.Count))
			w.row("llmq_queue_wait_seconds_sum", labels("class", c), float64(h.TotalMicros)/1e6)
			w.row("llmq_queue_wait_seconds_count", labels("class", c), float64(h.Count))
		}
	}

	// Per-StageKey rollups, labeled by the short stage id plus its
	// human-readable name.
	if len(m.Stages) > 0 {
		ids := make([]string, 0, len(m.Stages))
		for id := range m.Stages {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		stageRows := func(name, typ, help string, get func(r runtime.Metrics, id string) float64) {
			w.family(name, typ, help)
			for _, id := range ids {
				w.row(name, labels("stage", id, "name", m.Stages[id].Name), get(m, id))
			}
		}
		stageRows("llmq_stage_executions_total", "counter", "Stage executions per stage key.",
			func(m runtime.Metrics, id string) float64 { return float64(m.Stages[id].Count) })
		stageRows("llmq_stage_llm_calls_total", "counter", "Model rows per stage key.",
			func(m runtime.Metrics, id string) float64 { return float64(m.Stages[id].LLMCalls) })
		stageRows("llmq_stage_jct_seconds_total", "counter", "Virtual serving time per stage key.",
			func(m runtime.Metrics, id string) float64 { return m.Stages[id].JCTSeconds })
		stageRows("llmq_stage_mean_jct_seconds", "gauge", "Mean stage JCT per stage key.",
			func(m runtime.Metrics, id string) float64 { return m.Stages[id].MeanJCTSeconds })
		stageRows("llmq_stage_p99_jct_seconds", "gauge", "p99 stage JCT over the rollup reservoir.",
			func(m runtime.Metrics, id string) float64 { return m.Stages[id].P99JCTSeconds })
		stageRows("llmq_stage_selectivity", "gauge", "Observed selectivity (-1 when unobserved).",
			func(m runtime.Metrics, id string) float64 { return m.Stages[id].Selectivity })
		stageRows("llmq_stage_cache_hit_rate", "gauge", "Result-cache hit rate per stage key.",
			func(m runtime.Metrics, id string) float64 { return m.Stages[id].CacheHitRate })
	}

	return b.String()
}

// promWriter emits exposition-format lines.
type promWriter struct {
	b *strings.Builder
}

// family writes the one HELP + TYPE header a metric family gets.
func (w promWriter) family(name, typ, help string) {
	fmt.Fprintf(w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// row writes one sample line; lbls is the pre-rendered label set ("" for
// none).
func (w promWriter) row(name, lbls string, v float64) {
	if lbls != "" {
		fmt.Fprintf(w.b, "%s{%s} %s\n", name, lbls, strconv.FormatFloat(v, 'g', -1, 64))
		return
	}
	fmt.Fprintf(w.b, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

// labels renders key/value pairs as a label set, escaping values per the
// exposition format.
func labels(kv ...string) string {
	var sb strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, kv[i], escapeLabel(kv[i+1]))
	}
	return sb.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline. (%q adds the surrounding quotes and escapes the
// rest, but would also escape non-ASCII; the format is UTF-8, so only the
// three mandated characters are escaped here.)
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
