package query

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// This file amortizes the two per-flush planning costs that data-parallel
// sharding exposes once engine time stops dominating: the GGR solve over the
// batch window's combined table, and prompt tokenization.
//
// Both caches are opt-in via Config (nil solves every window and tokenizes
// through a memo confined to the stage); the serving runtime attaches one
// of each for its lifetime, so a dashboard fleet re-submitting the same
// batch window pays the solver and the tokenizer walk once.

// DefaultReorderCacheCapacity bounds the reorder cache in schedules.
const DefaultReorderCacheCapacity = 256

// DefaultPromptCacheCapacity bounds the prompt cache in entries: cell
// fragments and prompt prefixes.
const DefaultPromptCacheCapacity = 65536

// reorderKey identifies one solve: the stage fingerprint (prompt, schema,
// policy, solver options — see StageKey) plus a 128-bit content hash of the
// table the solver would run over (cells in order, plus the FD groups that
// steer GGR's column scoring). Two independent FNV-64 streams make an
// accidental collision astronomically unlikely; a collision is not silent
// corruption regardless, because RunStageContext verifies every schedule
// against its table (core.Verify) before serving it.
type reorderKey struct {
	stageKey string
	h1, h2   uint64
}

func reorderKeyFor(stageKey string, tbl *table.Table) reorderKey {
	// FNV-1a (h1) and FNV-1 (h2) over every string followed by a 0 byte,
	// inlined so no cell is copied into a hash.Hash.
	const offset, prime = 14695981039346656037, 1099511628211
	h1, h2 := uint64(offset), uint64(offset)
	write := func(s string) {
		for i := 0; i < len(s); i++ {
			h1 ^= uint64(s[i])
			h1 *= prime
			h2 *= prime
			h2 ^= uint64(s[i])
		}
		h1 *= prime // the 0 separator: xor with 0 is a no-op
		h2 *= prime
	}
	for _, c := range tbl.Columns() {
		write(c)
	}
	for i := 0; i < tbl.NumRows(); i++ {
		for _, cell := range tbl.Row(i) {
			write(cell)
		}
	}
	for _, group := range tbl.FDs().Groups() {
		write("fd")
		for _, col := range group {
			write(col)
		}
	}
	return reorderKey{stageKey: stageKey, h1: h1, h2: h2}
}

// ReorderCache memoizes GGR solves by (StageKey, table-content hash): a
// batch window identical to an earlier one — same stage, same rows in the
// same order — reuses the earlier schedule instead of re-running the solver.
// Entries are LRU-evicted past capacity. Cached schedules are shared, never
// copied: every consumer treats a core.Schedule as immutable.
type ReorderCache struct {
	mu  sync.Mutex
	lru *lruMap[reorderKey, reorderEntry] // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
	solves atomic.Int64
}

type reorderEntry struct {
	sched *core.Schedule
	phc   int64
}

// NewReorderCache returns a cache bounded to capacity schedules (<= 0 uses
// DefaultReorderCacheCapacity).
func NewReorderCache(capacity int) *ReorderCache {
	if capacity <= 0 {
		capacity = DefaultReorderCacheCapacity
	}
	return &ReorderCache{lru: newLRUMap[reorderKey, reorderEntry](capacity)}
}

// ReorderStats is the cache's accounting: Hits and Misses count lookups,
// Solves the GGR runs performed on misses (the counter the repeated-window
// regression tests pin to 1).
type ReorderStats struct {
	Hits   int64
	Misses int64
	Solves int64
}

// Stats snapshots the counters.
func (c *ReorderCache) Stats() ReorderStats {
	return ReorderStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Solves: c.solves.Load()}
}

// Len reports the number of cached schedules.
func (c *ReorderCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.len()
}

func (c *ReorderCache) lookup(key reorderKey) (*core.Schedule, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.lru.get(key); ok {
		c.hits.Add(1)
		return ent.sched, ent.phc, true
	}
	c.misses.Add(1)
	return nil, 0, false
}

func (c *ReorderCache) store(key reorderKey, sched *core.Schedule, phc int64) {
	c.solves.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	// put keeps an existing entry when a concurrent solve won the race.
	c.lru.put(key, reorderEntry{sched: sched, phc: phc})
}

// PromptCache memoizes prompt tokenization over one long-lived tokenizer at
// cell granularity: each row cell's JSON fragment ("field": "value") and
// each stage's prompt prefix are walked once across every stage and batch
// window that serves them, and a request is assembled by concatenating
// those token runs (see stagePrompts). GGR makes rows share their leading
// cells, and reordered or projected rows rarely repeat verbatim while their
// cells repeat all the time, so the cell is the unit that recurs. Sharing
// one tokenizer also makes token IDs stable across batches — which is what
// a persistent backend's cross-batch KV cache compares — where per-stage
// throwaway tokenizers gave the same text a different ID in every batch.
//
// Returned token slices are shared and must be treated as immutable (every
// caller appends them into a fresh prompt slice). The memo is LRU-bounded
// in entries (cell fragments and prefixes); the tokenizer's interned
// vocabulary grows with distinct text, which is the same growth one kvcache
// trie already exhibits for the same traffic.
type PromptCache struct {
	tok *tokenizer.Tokenizer
	mu  sync.Mutex
	lru *lruMap[promptKey, []tokenizer.Token] // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

// promptKey names one memoized token run: the JSON fragment of Cell, or,
// when text is set, the whole text held in Cell.Value (a prompt prefix).
type promptKey struct {
	core.Cell
	text bool
}

// NewPromptCache returns a cache bounded to capacity entries — cell
// fragments and prompt prefixes (<= 0 uses DefaultPromptCacheCapacity).
func NewPromptCache(capacity int) *PromptCache {
	if capacity <= 0 {
		capacity = DefaultPromptCacheCapacity
	}
	return &PromptCache{
		tok: tokenizer.New(),
		lru: newLRUMap[promptKey, []tokenizer.Token](capacity),
	}
}

// Encode tokenizes a whole text (a prompt prefix) through the memo. The
// returned slice is shared: callers must not modify it.
func (p *PromptCache) Encode(text string) []tokenizer.Token {
	key := promptKey{Cell: core.Cell{Value: text}, text: true}
	p.mu.Lock()
	if toks, ok := p.lru.get(key); ok {
		p.mu.Unlock()
		p.hits.Add(1)
		return toks
	}
	p.mu.Unlock()

	// Tokenize outside the memo lock: Tokenizer has its own, and a slow walk
	// must not serialize concurrent encoders of other texts.
	toks := p.tok.Encode(text)
	p.misses.Add(1)

	p.mu.Lock()
	p.lru.put(key, toks)
	p.mu.Unlock()
	return toks
}

// Hits and Misses report the memo's lookup accounting, one lookup per
// prompt prefix and per row cell.
func (p *PromptCache) Hits() int64   { return p.hits.Load() }
func (p *PromptCache) Misses() int64 { return p.misses.Load() }

// Len reports the number of memoized entries (cell fragments and prefixes).
func (p *PromptCache) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.len()
}
