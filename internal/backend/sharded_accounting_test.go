package backend_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/llmsim"
	"repro/internal/tokenizer"
)

// meteredInner is a synthetic Backend whose per-batch result is a pure
// function of the requests it receives, so the merged result of any split is
// predictable exactly: tokens, steps, and calls must be conserved across the
// fan-out, and JCT must be the max over sub-batches (shards run in
// parallel). It records every sub-batch for shape assertions.
type meteredInner struct {
	mu      sync.Mutex
	batches [][]*llmsim.Request
	jcts    []float64
}

func (m *meteredInner) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	var prompt, decode int64
	var weight float64
	for _, r := range spec.Requests {
		prompt += int64(len(r.Prompt))
		decode += int64(r.OutTokens)
		weight += float64(len(r.Prompt) + r.OutTokens)
	}
	jct := weight / 100 // heavier sub-batch = slower shard
	res := backend.BatchResult{
		ModelCalls: len(spec.Requests),
		Metrics: llmsim.Metrics{
			JCT:             jct,
			Steps:           int64(len(spec.Requests)),
			PromptTokens:    prompt,
			PrefilledTokens: prompt,
			DecodeTokens:    decode,
			MeanLatency:     jct,
			P99Latency:      jct,
		},
	}
	res.Metrics.Cache.PromptTokens = prompt
	res.Metrics.Cache.InsertedBlocks = int64(len(spec.Requests))
	m.mu.Lock()
	m.batches = append(m.batches, spec.Requests)
	m.jcts = append(m.jcts, jct)
	m.mu.Unlock()
	return res, nil
}

func (m *meteredInner) Close() error { return nil }

// accountingSpec builds a batch of groups[i] requests per group, each
// request with the given prompt length and output budget.
func accountingSpec(groups []int, promptLen, outTokens int) backend.BatchSpec {
	spec := backend.BatchSpec{StageKey: "stage"}
	for _, n := range groups {
		spec.Groups = append(spec.Groups, len(spec.Requests))
		for i := 0; i < n; i++ {
			spec.Requests = append(spec.Requests, &llmsim.Request{
				ID:        len(spec.Requests),
				Prompt:    make([]tokenizer.Token, promptLen),
				OutTokens: outTokens,
			})
		}
	}
	return spec
}

// TestShardedMergeConservation is the merge-accounting table: across even,
// skewed, and degenerate group layouts, the merged BatchResult must conserve
// model calls, steps, and every token counter (summed over sub-batches), and
// report JCT as the slowest shard, not the sum.
func TestShardedMergeConservation(t *testing.T) {
	cases := []struct {
		name   string
		groups []int // requests per group
		shards int
		// wantSplit is the fan-out shape: minimum sub-batches expected
		// (0 means passthrough: exactly one inner batch, identical spec).
		wantSplit int
	}{
		{name: "even split", groups: []int{2, 2, 2, 2}, shards: 4, wantSplit: 2},
		{name: "skewed weights", groups: []int{8, 1, 1, 1}, shards: 4, wantSplit: 2},
		{name: "single-group shards", groups: []int{1, 1, 1, 1}, shards: 4, wantSplit: 2},
		{name: "more shards than groups", groups: []int{3, 3}, shards: 8, wantSplit: 2},
		{name: "single group passes through", groups: []int{6}, shards: 4, wantSplit: 0},
		{name: "one shard passes through", groups: []int{2, 2}, shards: 1, wantSplit: 0},
		{name: "single request passes through", groups: []int{1}, shards: 4, wantSplit: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := &meteredInner{}
			sh, err := cluster.NewLocal(inner, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()

			spec := accountingSpec(tc.groups, 50, 10)
			n := len(spec.Requests)
			merged, err := sh.RunBatch(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}

			if tc.wantSplit == 0 {
				if len(inner.batches) != 1 {
					t.Fatalf("passthrough ran %d inner batches, want 1", len(inner.batches))
				}
				if len(inner.batches[0]) != n {
					t.Fatalf("passthrough forwarded %d requests, want %d", len(inner.batches[0]), n)
				}
			} else if len(inner.batches) < tc.wantSplit || len(inner.batches) > tc.shards {
				t.Fatalf("split into %d sub-batches, want %d..%d", len(inner.batches), tc.wantSplit, tc.shards)
			}

			// No shard is empty and no request is lost or duplicated.
			seen := map[int]bool{}
			for _, b := range inner.batches {
				if len(b) == 0 {
					t.Fatal("inner backend received an empty sub-batch")
				}
				for _, r := range b {
					if seen[r.ID] {
						t.Fatalf("request %d served by two shards", r.ID)
					}
					seen[r.ID] = true
				}
			}
			if len(seen) != n {
				t.Fatalf("shards served %d distinct requests, want %d", len(seen), n)
			}

			// Conservation: counters sum over the whole batch regardless of
			// the split.
			wantTok := int64(n * 50)
			if merged.ModelCalls != n {
				t.Errorf("ModelCalls = %d, want %d", merged.ModelCalls, n)
			}
			if merged.Metrics.Steps != int64(n) {
				t.Errorf("Steps = %d, want %d", merged.Metrics.Steps, n)
			}
			if merged.Metrics.PromptTokens != wantTok {
				t.Errorf("PromptTokens = %d, want %d", merged.Metrics.PromptTokens, wantTok)
			}
			if merged.Metrics.PrefilledTokens != wantTok {
				t.Errorf("PrefilledTokens = %d, want %d", merged.Metrics.PrefilledTokens, wantTok)
			}
			if merged.Metrics.DecodeTokens != int64(n*10) {
				t.Errorf("DecodeTokens = %d, want %d", merged.Metrics.DecodeTokens, int64(n*10))
			}
			if merged.Metrics.Cache.PromptTokens != wantTok {
				t.Errorf("Cache.PromptTokens = %d, want %d", merged.Metrics.Cache.PromptTokens, wantTok)
			}
			if merged.Metrics.Cache.InsertedBlocks != int64(n) {
				t.Errorf("Cache.InsertedBlocks = %d, want %d", merged.Metrics.Cache.InsertedBlocks, int64(n))
			}

			// Parallelism: merged JCT is the slowest shard, and the tail
			// percentile is the worst shard's.
			var maxJCT float64
			for _, j := range inner.jcts {
				if j > maxJCT {
					maxJCT = j
				}
			}
			if merged.Metrics.JCT != maxJCT {
				t.Errorf("JCT = %v, want max over shards %v", merged.Metrics.JCT, maxJCT)
			}
			if merged.Metrics.P99Latency != maxJCT {
				t.Errorf("P99Latency = %v, want worst shard %v", merged.Metrics.P99Latency, maxJCT)
			}

			// Mean latency is request-weighted across shards.
			if tc.wantSplit > 0 {
				var weighted float64
				for i, b := range inner.batches {
					weighted += inner.jcts[i] * float64(len(b))
				}
				want := weighted / float64(n)
				if diff := merged.Metrics.MeanLatency - want; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("MeanLatency = %v, want request-weighted %v", merged.Metrics.MeanLatency, want)
				}
			}

			// The in-process member counts one batch per part: the whole
			// batch on a passthrough, one per sub-batch on a split.
			if got := localBatches(sh); got != int64(len(inner.batches)) {
				t.Errorf("member served %d parts, inner saw %d sub-batches", got, len(inner.batches))
			}
		})
	}
}
