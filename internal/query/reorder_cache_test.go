package query

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/table"
)

func cacheTestTable(rows int, salt string) *table.Table {
	t := table.New("id", "group", "text")
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			fmt.Sprintf("id-%03d%s", i, salt),
			fmt.Sprintf("grp-%d", i%3),
			fmt.Sprintf("some longer payload text %d about topic %d", i%5, i%3),
		)
	}
	return t
}

func cacheTestSpec(prompt string) Spec {
	return Spec{
		Name: "reorder-cache-test", Dataset: "adhoc", Type: Projection,
		UserPrompt: prompt, OutTokens: 4,
	}
}

// TestReorderCacheSkipsRepeatedSolve is the satellite pin: an identical
// repeated batch window (same stage key, same rows) solves GGR once — the
// second stage run is served from the reorder cache with the same schedule.
func TestReorderCacheSkipsRepeatedSolve(t *testing.T) {
	rc := NewReorderCache(0)
	cfg := Config{Policy: CacheGGR, ReorderCache: rc}
	tbl := cacheTestTable(24, "")
	spec := cacheTestSpec("Summarize the text.")

	first, err := RunStage(spec, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 1 || s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first window: %+v, want 1 solve / 1 miss", s)
	}
	second, err := RunStage(spec, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 1 || s.Hits != 1 {
		t.Fatalf("after repeated window: %+v, want solves pinned at 1 with a hit", s)
	}
	if !reflect.DeepEqual(first.Outputs, second.Outputs) {
		t.Fatal("cached schedule changed the stage outputs")
	}
	if first.PHC != second.PHC {
		t.Fatalf("cached PHC %d differs from solved %d", second.PHC, first.PHC)
	}
}

// TestReorderCacheMissesOnChange pins the key: a changed row set or a
// different stage key (another prompt) must re-solve.
func TestReorderCacheMissesOnChange(t *testing.T) {
	rc := NewReorderCache(0)
	cfg := Config{Policy: CacheGGR, ReorderCache: rc}
	spec := cacheTestSpec("Summarize the text.")

	if _, err := RunStage(spec, cacheTestTable(24, ""), cfg); err != nil {
		t.Fatal(err)
	}
	// Same schema and stage key, one row's content differs: must miss.
	if _, err := RunStage(spec, cacheTestTable(24, "x"), cfg); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 2 || s.Hits != 0 {
		t.Fatalf("changed rows served from cache: %+v", s)
	}
	// Same rows, different prompt → different StageKey: must miss.
	if _, err := RunStage(cacheTestSpec("Translate the text."), cacheTestTable(24, ""), cfg); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 3 || s.Hits != 0 {
		t.Fatalf("changed stage key served from cache: %+v", s)
	}
	// FDs steer the solver, so they are part of the content hash.
	withFD := cacheTestTable(24, "")
	fds := table.NewFDSet()
	fds.AddGroup("group", "text")
	if err := withFD.SetFDs(fds); err != nil {
		t.Fatal(err)
	}
	if _, err := RunStage(spec, withFD, cfg); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 4 {
		t.Fatalf("changed FDs served from cache: %+v", s)
	}
}

// reorderKeyReference is reorderKeyFor written over hash/fnv: FNV-1a and
// FNV-1 streams of every string followed by a 0 byte.
func reorderKeyReference(stageKey string, tbl *table.Table) reorderKey {
	a, b := fnv.New64a(), fnv.New64()
	write := func(s string) {
		for _, h := range []hash.Hash64{a, b} {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
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
	return reorderKey{stageKey: stageKey, h1: a.Sum64(), h2: b.Sum64()}
}

// TestReorderKeyMatchesFNV pins the inlined hash loops to the hash/fnv
// reference on random tables, FDs included, so cached schedules keep their
// keys.
func TestReorderKeyMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"", "a", "Z", "0", " ", ";", "\x00", "\xff", "é", "日本", "long text value"}
	word := func() string {
		var s string
		for n := rng.Intn(4); n > 0; n-- {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		ncols := 1 + rng.Intn(5)
		cols := make([]string, ncols)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d%s", i, word())
		}
		tbl := table.New(cols...)
		for r := rng.Intn(12); r > 0; r-- {
			row := make([]string, ncols)
			for i := range row {
				row[i] = word()
			}
			tbl.MustAppendRow(row...)
		}
		if ncols >= 2 && rng.Intn(2) == 0 {
			fds := table.NewFDSet()
			fds.AddGroup(cols[0], cols[1+rng.Intn(ncols-1)])
			if err := tbl.SetFDs(fds); err != nil {
				t.Fatal(err)
			}
		}
		stageKey := word()
		if got, want := reorderKeyFor(stageKey, tbl), reorderKeyReference(stageKey, tbl); got != want {
			t.Fatalf("trial %d: key %+v, reference %+v", trial, got, want)
		}
	}
}

// TestReorderCacheEvictsLRU pins the bound.
func TestReorderCacheEvictsLRU(t *testing.T) {
	rc := NewReorderCache(2)
	cfg := Config{Policy: CacheGGR, ReorderCache: rc}
	spec := cacheTestSpec("Summarize the text.")
	for _, salt := range []string{"a", "b", "c"} {
		if _, err := RunStage(spec, cacheTestTable(8, salt), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := rc.Len(); got != 2 {
		t.Fatalf("cache holds %d schedules, capacity 2", got)
	}
	// "a" was evicted: re-running it must solve again.
	if _, err := RunStage(spec, cacheTestTable(8, "a"), cfg); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 4 {
		t.Fatalf("evicted entry served from cache: %+v", s)
	}
}

// TestPromptCacheMemoizes pins the tokenization memo: repeated texts hit,
// results match a fresh tokenizer's token count, and the memo is bounded.
func TestPromptCacheMemoizes(t *testing.T) {
	pc := NewPromptCache(4)
	a := pc.Encode("the same text")
	b := pc.Encode("the same text")
	if &a[0] != &b[0] {
		t.Fatal("repeated encode did not return the memoized slice")
	}
	if pc.Hits() != 1 || pc.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", pc.Hits(), pc.Misses())
	}
	for i := 0; i < 8; i++ {
		pc.Encode(fmt.Sprintf("distinct text %d", i))
	}
	if got := pc.Len(); got != 4 {
		t.Fatalf("memo holds %d texts, capacity 4", got)
	}
}

// TestPromptCacheStageIdentity: a stage run through the shared memo returns
// the same outputs and the same prompt-token accounting as the historical
// per-stage tokenizer.
func TestPromptCacheStageIdentity(t *testing.T) {
	tbl := cacheTestTable(24, "")
	spec := cacheTestSpec("Summarize the text.")
	plain, err := RunStage(spec, tbl, Config{Policy: CacheGGR})
	if err != nil {
		t.Fatal(err)
	}
	memo, err := RunStage(spec, tbl, Config{Policy: CacheGGR, PromptCache: NewPromptCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Outputs, memo.Outputs) {
		t.Fatal("prompt memo changed stage outputs")
	}
	if plain.Metrics.PromptTokens != memo.Metrics.PromptTokens {
		t.Fatalf("prompt tokens differ: plain %d, memo %d",
			plain.Metrics.PromptTokens, memo.Metrics.PromptTokens)
	}
	if plain.Metrics.MatchedTokens != memo.Metrics.MatchedTokens {
		t.Fatalf("matched tokens differ: plain %d, memo %d",
			plain.Metrics.MatchedTokens, memo.Metrics.MatchedTokens)
	}
}
