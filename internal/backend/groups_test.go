package backend_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/llmsim"
	"repro/internal/tokenizer"
)

// randomGroupedSpec builds a batch of 1-24 prefix groups of 1-8 requests
// each, with random prompt lengths and output budgets; request IDs are the
// requests' positions in the batch.
func randomGroupedSpec(r *rand.Rand) backend.BatchSpec {
	spec := backend.BatchSpec{StageKey: "split-props"}
	for g, groups := 0, 1+r.Intn(24); g < groups; g++ {
		spec.Groups = append(spec.Groups, len(spec.Requests))
		for i, size := 0, 1+r.Intn(8); i < size; i++ {
			spec.Requests = append(spec.Requests, &llmsim.Request{
				ID:        len(spec.Requests),
				Prompt:    make([]tokenizer.Token, 1+r.Intn(40)),
				OutTokens: 1 + r.Intn(6),
			})
		}
	}
	return spec
}

func requestWeight(q *llmsim.Request) int64 { return int64(len(q.Prompt) + q.OutTokens) }

// TestSplitByGroupsProperties checks the router's batch cut on random
// grouped batches: n < 2 is the identity, there are at most n parts, every
// request lands in exactly one part, no group is split, groups keep their
// relative order within a part, and each part's weight stays within the
// greedy bound total/n + the largest group.
func TestSplitByGroupsProperties(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		spec := randomGroupedSpec(r)
		groupOf := make([]int, len(spec.Requests))
		groupWeight := make([]int64, len(spec.Groups))
		var total, largest int64
		for g, start := range spec.Groups {
			end := len(spec.Requests)
			if g+1 < len(spec.Groups) {
				end = spec.Groups[g+1]
			}
			for i := start; i < end; i++ {
				groupOf[i] = g
				groupWeight[g] += requestWeight(spec.Requests[i])
			}
			total += groupWeight[g]
			largest = max(largest, groupWeight[g])
		}

		for _, n := range []int{1, 2, 3, 4, 8, 64} {
			parts, err := backend.SplitByGroups(spec, n)
			if err != nil {
				t.Fatalf("trial %d n=%d: %v", trial, n, err)
			}
			if n < 2 && !reflect.DeepEqual(parts, []backend.BatchSpec{spec}) {
				t.Fatalf("trial %d n=%d: want the spec unchanged, got %d parts", trial, n, len(parts))
			}
			if len(parts) > n {
				t.Fatalf("trial %d n=%d: %d parts", trial, n, len(parts))
			}

			seen := make([]bool, len(spec.Requests))
			partOf := make(map[int]int) // group -> part
			for p, part := range parts {
				var weight int64
				last := -1
				for _, q := range part.Requests {
					if seen[q.ID] {
						t.Fatalf("trial %d n=%d: request %d in two parts", trial, n, q.ID)
					}
					seen[q.ID] = true
					g := groupOf[q.ID]
					if prev, ok := partOf[g]; ok && prev != p {
						t.Fatalf("trial %d n=%d: group %d split across parts %d and %d", trial, n, g, prev, p)
					}
					partOf[g] = p
					if q.ID <= last {
						t.Fatalf("trial %d n=%d part %d: request %d after %d, batch order lost", trial, n, p, q.ID, last)
					}
					last = q.ID
					weight += requestWeight(q)
				}
				if bound := total/int64(n) + largest; weight > bound {
					t.Fatalf("trial %d n=%d part %d: weight %d over bound %d (total %d, largest group %d)",
						trial, n, p, weight, bound, total, largest)
				}
			}
			for id, ok := range seen {
				if !ok {
					t.Fatalf("trial %d n=%d: request %d in no part", trial, n, id)
				}
			}
		}
	}
}
