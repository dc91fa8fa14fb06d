package main

import (
	"time"

	"repro/internal/runtime"
)

// perLayer reports the per-layer metrics of a traced run: counters from
// the untraced pass (plain), self times from the traced pass, and the
// replays. Layers a workload does not exercise (the fleet on a single
// process) report 0.
func perLayer(r *result, cfg config, in *inputs, ref *reference, plain, traced *pass, overheadPct float64) error {
	a, b := plain.after, plain.before
	n := plain.p.n

	var handler, gap []float64
	var respBytes int64
	for i := 0; i < n; i++ {
		h := time.Duration(plain.handlerNs[i])
		handler = append(handler, float64(h)/float64(time.Millisecond))
		gap = append(gap, float64(plain.p.rtt[i]-h)/float64(time.Millisecond))
		respBytes += int64(len(plain.p.body[i]))
	}
	r.add("server.sql_handler_ms", median(handler), "ms")
	r.add("server.resp_kb_per_stmt", float64(respBytes)/1024/float64(n), "KiB")
	r.add("server.client_gap_ms", median(gap), "ms")
	r.add("server.worker_handler_ms", msPer(plain.hBusy, plain.hReq), "ms")
	r.add("server.worker_handler_self_ms", msPer(plain.hBusy-plain.wbBusy, plain.hReq), "ms")

	rp, err := replayLayers(in, ref)
	if err != nil {
		return err
	}
	r.add("sqlfront.prepare_us", rp.prepareUs, "us")
	r.add("sqlfront.prepare_allocs", rp.prepareAllocs, "count")
	r.add("runtime.plan_cache_hit_ratio", ratio(a.PlanCacheHits-b.PlanCacheHits,
		a.PlanCacheHits-b.PlanCacheHits+a.PlanCacheMisses-b.PlanCacheMisses), "ratio")

	wait := func(c runtime.Class) float64 {
		wa, wb := a.QueueWait[c], b.QueueWait[c]
		return msPer((wa.TotalMicros-wb.TotalMicros)*1000, wa.Count-wb.Count)
	}
	r.add("runtime.queue_wait_ms.interactive", wait(runtime.ClassInteractive), "ms")
	r.add("runtime.queue_wait_ms.batch", wait(runtime.ClassBatch), "ms")

	nodes, err := mergeTrace(traced)
	if err != nil {
		return err
	}
	path, err := writeSpans(cfg.outDir, cfg.workload, cfg.seed, nodes)
	if err != nil {
		return err
	}
	r.note("span file %s (%d spans)", path, len(nodes))
	var batchWaits int64
	for _, nd := range nodes {
		if nd.Name == "batch-wait" {
			batchWaits++
		}
	}
	self := selfTimes(nodes)
	stmts := traced.p.n
	r.add("runtime.batch_wait_ms", msPer(self["batch-wait"], batchWaits), "ms")
	r.add("runtime.stage_self_ms", msPer(self["stage"], int64(stmts)), "ms")
	hits, misses, joins := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses, a.InflightDeduped-b.InflightDeduped
	r.add("runtime.result_cache_hit_ratio", ratio(hits, hits+misses+joins), "ratio")
	r.add("runtime.inflight_deduped", float64(joins), "count")
	r.add("runtime.coalesced_run_share", ratio(a.CoalescedRuns-b.CoalescedRuns, a.Batches-b.Batches), "ratio")
	r.add("runtime.windows_shortened", float64(a.BatchWindowsShortened-b.BatchWindowsShortened), "count")

	batches := a.Batches - b.Batches
	r.add("query.schedule_ms", msPer(int64((a.TotalSolverSeconds-b.TotalSolverSeconds)*1e9), batches), "ms")
	r.add("query.reorder_solves", float64(a.ReorderSolves-b.ReorderSolves), "count")
	r.add("query.reorder_cache_hit_ratio", ratio(a.ReorderCacheHits-b.ReorderCacheHits,
		a.ReorderCacheHits-b.ReorderCacheHits+a.ReorderCacheMisses-b.ReorderCacheMisses), "ratio")
	r.add("query.prompt_cache_hit_ratio", ratio(a.PromptCacheHits-b.PromptCacheHits,
		a.PromptCacheHits-b.PromptCacheHits+a.PromptCacheMisses-b.PromptCacheMisses), "ratio")
	r.add("core.ggr_ms_per_krow", rp.ggrMsPerKrow, "ms")
	r.add("core.phc_tokens", float64(rp.phc), "token2")
	r.add("tokenizer.encode_mb_per_s", rp.encodeMBps, "MB/s")

	r.add("backend.batches", float64(plain.beBatches), "count")
	r.add("backend.rows_per_batch", ratio(plain.beRows, plain.beBatches), "count")
	r.add("backend.busy_ms", float64(plain.beBusy)/1e6, "ms")
	r.add("backend.errors", float64(plain.beErrs), "count")
	engineBusy, engineRows := plain.beBusy, plain.beRows
	if plain.wbRows > 0 {
		engineBusy, engineRows = plain.wbBusy, plain.wbRows
	}
	r.add("llmsim.engine_us_per_row", ratio(engineBusy, engineRows)/1e3, "us")
	r.add("llmsim.prompt_tokens", float64(plain.bePrompt), "count")
	r.add("llmsim.matched_tokens", float64(plain.beMatched), "count")

	var routerMs, overheadMs, parts float64
	var retries, hedges int64
	if a.Cluster != nil {
		routerMs = msPer(plain.beBusy, plain.beBatches)
		overheadMs = msPer(plain.beBusy-plain.slowSum, plain.beBatches)
		parts = ratio(plain.wParts, plain.beBatches)
		for addr, w := range a.Cluster.Workers {
			retries += w.Retries
			if b.Cluster != nil {
				retries -= b.Cluster.Workers[addr].Retries
			}
		}
		hedges = a.Cluster.HedgesLaunched
		if b.Cluster != nil {
			hedges -= b.Cluster.HedgesLaunched
		}
	}
	r.add("cluster.router_ms_per_batch", routerMs, "ms")
	r.add("cluster.router_overhead_ms", overheadMs, "ms")
	r.add("cluster.parts_per_batch", parts, "count")
	r.add("cluster.retries", float64(retries), "count")
	r.add("cluster.hedges_launched", float64(hedges), "count")
	r.add("wire.req_kb_per_batch", ratio(plain.wReq, plain.wParts)/1024, "KiB")
	r.add("wire.resp_kb_per_batch", ratio(plain.wRsp, plain.wParts)/1024, "KiB")
	r.add("wire.roundtrip_ms", msPer(plain.wRTT, plain.wParts), "ms")

	r.add("obs.trace_overhead_pct", overheadPct, "%")
	r.add("load.late_p99_ms", percentile(durationsMs(plain.p.late), 0.99), "ms")
	for _, l := range traceLayers {
		r.add("trace.self_ms."+l, msPer(self[l], int64(stmts)), "ms")
	}
	return nil
}

// msPer is ns/count in milliseconds, 0 when count is 0.
func msPer(ns, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(count)
}
