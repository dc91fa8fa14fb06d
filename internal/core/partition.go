package core

import (
	"sort"

	"repro/internal/table"
)

// This file implements prefix-coherent schedule partitioning: splitting one
// reordered schedule into shards that can run on independent engine replicas
// (data-parallel serving) with almost no prefix-cache loss.
//
// The key observation is structural: a GGR (or fixed-order) schedule is a
// sequence of top-level prefix-sharing groups — maximal runs of rows whose
// leading cell matches the previous row's. Rows in DIFFERENT groups share no
// leading cell, so the adjacent-row prefix hit across a group boundary is
// exactly zero (a prefix run dies on its first mismatched cell; see PHC).
// Cutting the schedule only at group boundaries therefore preserves every
// intra-shard prefix hit: each shard is itself a valid prefix-coherent
// schedule, and the only reuse forfeited is whatever the serving engine
// would have carried across the cut — which the schedule itself promised
// nothing about.

// GroupStarts returns the start indices of the schedule's top-level
// prefix-sharing groups, in ascending order and always beginning with 0 for
// a non-empty schedule. A new group starts at row r when row r's first cell
// (field and value) differs from row r-1's — the positions where the
// adjacent-row prefix hit is exactly zero, i.e. the free cut points.
func GroupStarts(s *Schedule) []int {
	if s == nil || len(s.Rows) == 0 {
		return nil
	}
	starts := []int{0}
	for r := 1; r < len(s.Rows); r++ {
		prev, cur := s.Rows[r-1].Cells, s.Rows[r].Cells
		if len(prev) == 0 || len(cur) == 0 || prev[0] != cur[0] {
			starts = append(starts, r)
		}
	}
	return starts
}

// PackGroups assigns item weights to at most bins bins with the
// longest-processing-time greedy: items sorted by descending weight, each
// placed on the currently lightest bin (ties: lower index). It returns the
// item indices of each bin, every bin non-empty, indices ascending within a
// bin. The greedy guarantees max bin weight <= total/bins + max item weight.
// Shared by schedule partitioning here and request partitioning in
// backend.SplitByGroups, the cut behind cluster.Router's fan-out.
func PackGroups(weights []int64, bins int) [][]int {
	n := len(weights)
	if n == 0 || bins < 1 {
		return nil
	}
	if bins > n {
		bins = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	loads := make([]int64, bins)
	out := make([][]int, bins)
	for _, item := range order {
		best := 0
		for b := 1; b < bins; b++ {
			if loads[b] < loads[best] {
				best = b
			}
		}
		loads[best] += weights[item]
		out[best] = append(out[best], item)
	}
	for _, bin := range out {
		sort.Ints(bin)
	}
	return out
}

// PartitionStats reports how a schedule was split.
type PartitionStats struct {
	// Groups is the number of top-level prefix-sharing groups found.
	Groups int
	// Shards is the number of shards produced (<= the requested n, and
	// <= Groups — a group is never split).
	Shards int
	// ShardTokens is each shard's data-token weight (sum of cell lengths
	// under the partitioning LenFunc), the quantity the greedy balances.
	ShardTokens []int64
	// LostHitTokens estimates the linear prefix-hit tokens the cuts forfeit:
	// the schedule's adjacent-row hit tokens minus the sum over shards. With
	// cuts only at group boundaries this is <= 0 (never a loss; re-adjacent
	// groups can only add coincidental hits), which is the prefix-coherence
	// argument in numbers.
	LostHitTokens int64
}

// PartitionSchedule splits s into at most n prefix-coherent shards for
// data-parallel execution. Cuts land only on top-level group boundaries
// (GroupStarts), so no prefix-sharing run is ever divided; groups are
// balanced across shards by data-token weight with the PackGroups greedy and
// keep their original relative order within each shard. n <= 1, a nil or
// empty schedule, or a single group returns the schedule unsplit. lenOf nil
// defaults to table.CharLen.
func PartitionSchedule(s *Schedule, n int, lenOf table.LenFunc) []*Schedule {
	shards, _ := PartitionScheduleStats(s, n, lenOf)
	return shards
}

// PartitionScheduleStats is PartitionSchedule reporting the cut accounting.
func PartitionScheduleStats(s *Schedule, n int, lenOf table.LenFunc) ([]*Schedule, PartitionStats) {
	if s == nil || len(s.Rows) == 0 {
		return nil, PartitionStats{}
	}
	if lenOf == nil {
		lenOf = table.CharLen
	}
	starts := GroupStarts(s)
	stats := PartitionStats{Groups: len(starts)}
	if n <= 1 || len(starts) <= 1 {
		stats.Shards = 1
		stats.ShardTokens = []int64{scheduleTokens(s.Rows, lenOf)}
		return []*Schedule{s}, stats
	}

	weights := make([]int64, len(starts))
	for g, start := range starts {
		end := len(s.Rows)
		if g+1 < len(starts) {
			end = starts[g+1]
		}
		weights[g] = scheduleTokens(s.Rows[start:end], lenOf)
	}
	bins := PackGroups(weights, n)

	shards := make([]*Schedule, len(bins))
	stats.Shards = len(bins)
	stats.ShardTokens = make([]int64, len(bins))
	var shardHits int64
	for b, groups := range bins {
		var rows []Row
		for _, g := range groups {
			end := len(s.Rows)
			if g+1 < len(starts) {
				end = starts[g+1]
			}
			rows = append(rows, s.Rows[starts[g]:end]...)
			stats.ShardTokens[b] += weights[g]
		}
		shards[b] = &Schedule{Rows: rows}
		shardHits += Hits(shards[b], lenOf).Matched
	}
	stats.LostHitTokens = Hits(s, lenOf).Matched - shardHits
	return shards, stats
}

// scheduleTokens sums cell lengths over rows, plus one per cell for the
// field-name and separator overhead a serialized request carries.
func scheduleTokens(rows []Row, lenOf table.LenFunc) int64 {
	var total int64
	for _, r := range rows {
		for _, c := range r.Cells {
			total += int64(lenOf(c.Value)) + 1
		}
	}
	return total
}
