package backend

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/llmsim"
)

// Cutting a batch only at its prefix-group boundaries (BatchSpec.Groups,
// annotated by core.GroupStarts) preserves every intra-part prefix hit: a
// group's rows share prompt prefixes with each other but not with the next
// group — the insight behind cache-aware data-parallel serving in vLLM and
// SGLang, applied to the paper's offline GGR schedules. What a split
// forfeits is the shared fixed prompt prefix, which each part's engine
// warms independently. cluster.Router is the one fan-out that splits
// batches; the wire decoder validates the annotation with validGroups.

// SplitByGroups partitions spec at its prefix-group boundaries into at most
// n sub-batches, balanced by request-token weight (core.PackGroups greedy).
// Sub-batches inherit the StageKey and Engine but carry no Groups annotation
// — they are leaves, not further splittable without prefix-hit loss. A batch
// that should not be split (n < 2, no or single group annotation, fewer than
// two requests) returns a single-element slice holding spec unchanged; an
// invalid Groups annotation is an error.
func SplitByGroups(spec BatchSpec, n int) ([]BatchSpec, error) {
	if n < 2 || len(spec.Groups) <= 1 || len(spec.Requests) < 2 {
		return []BatchSpec{spec}, nil
	}
	if err := validGroups(spec.Groups, len(spec.Requests)); err != nil {
		return nil, err
	}
	bins := core.PackGroups(groupWeights(spec), n)
	if len(bins) <= 1 {
		return []BatchSpec{spec}, nil
	}
	parts := make([]BatchSpec, len(bins))
	for b, groups := range bins {
		var reqs []*llmsim.Request
		for _, g := range groups {
			start, end := groupBounds(spec, g)
			reqs = append(reqs, spec.Requests[start:end]...)
		}
		parts[b] = BatchSpec{StageKey: spec.StageKey, Requests: reqs, Engine: spec.Engine}
	}
	return parts, nil
}

// MergeBatchResults folds the results of concurrently served sub-batches
// back into one BatchResult with the parallel-run semantics of
// cluster.Router's fan-out: JCT is the slowest part, step and token counts
// sum, mean latency is request-weighted (sizes holds each part's request
// count), and tail percentiles / peak concurrency report the worst part —
// a conservative merge, since exact percentiles would need the per-request
// samples the seam does not carry.
func MergeBatchResults(results []BatchResult, sizes []int) BatchResult {
	merged := BatchResult{}
	var latWeighted float64
	var total int
	for b, r := range results {
		merged.ModelCalls += r.ModelCalls
		m := &merged.Metrics
		sm := r.Metrics
		if sm.JCT > m.JCT {
			m.JCT = sm.JCT // parts run in parallel: batch JCT is the slowest part
		}
		m.Steps += sm.Steps
		m.PromptTokens += sm.PromptTokens
		m.MatchedTokens += sm.MatchedTokens
		m.PrefilledTokens += sm.PrefilledTokens
		m.DecodeTokens += sm.DecodeTokens
		latWeighted += sm.MeanLatency * float64(sizes[b])
		total += sizes[b]
		if sm.P50Latency > m.P50Latency {
			m.P50Latency = sm.P50Latency
		}
		if sm.P95Latency > m.P95Latency {
			m.P95Latency = sm.P95Latency
		}
		if sm.P99Latency > m.P99Latency {
			m.P99Latency = sm.P99Latency
		}
		if sm.MaxRunning > m.MaxRunning {
			m.MaxRunning = sm.MaxRunning
		}
		m.Cache.MatchedTokens += sm.Cache.MatchedTokens
		m.Cache.PromptTokens += sm.Cache.PromptTokens
		m.Cache.InsertedBlocks += sm.Cache.InsertedBlocks
		m.Cache.EvictedBlocks += sm.Cache.EvictedBlocks
		m.Cache.Rejections += sm.Cache.Rejections
	}
	if total > 0 {
		merged.Metrics.MeanLatency = latWeighted / float64(total)
	}
	return merged
}

// groupWeights is each group's request weight: prompt tokens plus output
// budget, the units the engine's step budget is spent in.
func groupWeights(spec BatchSpec) []int64 {
	weights := make([]int64, len(spec.Groups))
	for g := range spec.Groups {
		start, end := groupBounds(spec, g)
		for _, r := range spec.Requests[start:end] {
			weights[g] += int64(len(r.Prompt) + r.OutTokens)
		}
	}
	return weights
}

// groupBounds returns the request index range [start, end) of group g.
func groupBounds(spec BatchSpec, g int) (int, int) {
	start := spec.Groups[g]
	end := len(spec.Requests)
	if g+1 < len(spec.Groups) {
		end = spec.Groups[g+1]
	}
	return start, end
}

// validGroups checks the group annotation is a plausible boundary list:
// strictly ascending, starting at 0, within range.
func validGroups(groups []int, n int) error {
	for i, g := range groups {
		switch {
		case i == 0 && g != 0:
			return fmt.Errorf("backend: batch group annotation starts at %d, want 0", g)
		case i > 0 && g <= groups[i-1]:
			return fmt.Errorf("backend: batch group annotation not ascending at index %d", i)
		case g >= n:
			return fmt.Errorf("backend: batch group start %d out of range (batch has %d requests)", g, n)
		}
	}
	return nil
}
