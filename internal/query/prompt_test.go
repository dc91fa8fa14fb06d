package query

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/tokenizer"
)

// checkRowTokens asserts that the row tokens stagePrompts assembles from
// memoized cell runs are the tokens of the rendered RowJSON: on the memo's
// own tokenizer they decode, token by token, to exactly the pieces of
// tokenizer.Split, and against a fresh tokenizer that encodes the rendered
// text they have the same length and the same token-equality pattern.
func checkRowTokens(t *testing.T, memo *PromptCache, cells []core.Cell) {
	t.Helper()
	text := RowJSON(cells)
	got := memo.stage("").prompt(cells)
	want := tokenizer.Split(text)
	if len(got) != len(want) {
		t.Fatalf("row %q: %d assembled tokens, %d pieces", text, len(got), len(want))
	}
	for i, tok := range got {
		if p := memo.tok.Decode([]tokenizer.Token{tok}); p != want[i] {
			t.Fatalf("row %q: token %d decodes to %q, piece is %q", text, i, p, want[i])
		}
	}
	if !samePattern(got, tokenizer.New().Encode(text)) {
		t.Fatalf("row %q: assembled tokens repeat differently from the encoded text", text)
	}
}

// samePattern reports whether a and b have equal length and a[i] == a[j]
// exactly when b[i] == b[j]: the same stream up to a renaming of IDs.
func samePattern(a, b []tokenizer.Token) bool {
	if len(a) != len(b) {
		return false
	}
	ab := make(map[tokenizer.Token]tokenizer.Token)
	ba := make(map[tokenizer.Token]tokenizer.Token)
	for i := range a {
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := ba[b[i]]; ok && y != a[i] {
			return false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return true
}

// rowTokenSeeds are the cells the equivalence must survive: escapes and
// control bytes, non-ASCII and invalid UTF-8, edge spaces, empty strings and
// words longer than the tokenizer's longest piece.
var rowTokenSeeds = [][2]string{
	{`say "hi"`, "back\\slash\nnew\ttab\x01\x7f"},
	{"café", "日本語 テキスト"},
	{"\xff\xfe", "bad \xc3 utf8"},
	{" lead", "trail "},
	{"", ""},
	{"internationalization", "abcdefghijklmnopqrstuvwxyz0123456789"},
	{"a", " "},
	{"x_y", "42, 7: {}"},
}

// TestRowTokensMatchRendered is the property behind cell-granular
// tokenization, over random rows that share one memo (so later rows are
// assembled from runs earlier rows left behind) and over the seed cells.
func TestRowTokensMatchRendered(t *testing.T) {
	memo := NewPromptCache(0)
	checkRowTokens(t, memo, nil)
	for _, s := range rowTokenSeeds {
		checkRowTokens(t, memo, []core.Cell{{Field: s[0], Value: s[1]}})
	}
	alphabet := []string{"a", "Bb", "7", " ", "  ", "_", `"`, "\\", ",", ":", "\n", "é", "\xff", "{", "longwordpiece"}
	word := func(rng *rand.Rand) string {
		var s string
		for n := rng.Intn(5); n > 0; n-- {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		cells := make([]core.Cell, rng.Intn(6))
		for i := range cells {
			cells[i] = core.Cell{Field: word(rng), Value: word(rng)}
		}
		checkRowTokens(t, memo, cells)
	}
	if memo.Hits() == 0 {
		t.Fatal("random rows over one memo never reused a cell run")
	}
}

// FuzzRowTokens fuzzes the same equivalence over arbitrary cell text. Each
// input is a three-cell row that repeats its strings in other positions, so
// one row is assembled from both fresh and memoized runs.
func FuzzRowTokens(f *testing.F) {
	for _, s := range rowTokenSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, field, value string) {
		memo := NewPromptCache(0)
		checkRowTokens(t, memo, []core.Cell{{Field: field, Value: value}})
		checkRowTokens(t, memo, []core.Cell{
			{Field: value, Value: field},
			{Field: field, Value: value},
			{Field: field, Value: field},
		})
	})
}

// stagePromptsFixture is a GGR schedule of a bundled dataset and its
// stage's prompt prefix.
func stagePromptsFixture(tb testing.TB) (*core.Schedule, string) {
	tb.Helper()
	d := datagen.Movies(genOpt)
	spec, err := ByName("movies-filter")
	if err != nil {
		tb.Fatal(err)
	}
	sched := core.GGR(d.Table, core.DefaultGGROptions(tokenLen)).Schedule
	return sched, PromptPrefix(spec.UserPrompt)
}

// assembleAll builds every request prompt of sched through memo.
func assembleAll(memo *PromptCache, sched *core.Schedule, prefix string) int {
	prompts := memo.stage(prefix)
	n := 0
	for _, row := range sched.Rows {
		n += len(prompts.prompt(row.Cells))
	}
	return n
}

// TestStagePromptsAllocCeiling pins the warm path of prompt assembly: once
// the memo holds every cell, a stage allocates one prompt slice per row plus
// a constant (the assembler, its separators and its scratch), and nothing
// per cell.
func TestStagePromptsAllocCeiling(t *testing.T) {
	sched, prefix := stagePromptsFixture(t)
	memo := NewPromptCache(0)
	assembleAll(memo, sched, prefix)
	ceiling := float64(len(sched.Rows) + 8)
	if got := testing.AllocsPerRun(5, func() { assembleAll(memo, sched, prefix) }); got > ceiling {
		t.Fatalf("warm stage assembly: %.0f allocs for %d rows, ceiling %.0f", got, len(sched.Rows), ceiling)
	}
}

// BenchmarkStagePrompts measures prompt assembly for one stage over a GGR
// schedule: cold starts from an empty memo each iteration (every distinct
// cell is rendered and tokenized once), warm reuses a memo that already
// holds every cell.
func BenchmarkStagePrompts(b *testing.B) {
	sched, prefix := stagePromptsFixture(b)
	report := func(b *testing.B, memo *PromptCache, tokens int) {
		b.ReportMetric(float64(len(sched.Rows)), "rows/op")
		b.ReportMetric(float64(tokens), "tokens/op")
		b.ReportMetric(float64(memo.Hits())/float64(memo.Hits()+memo.Misses()), "hit-ratio")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var memo *PromptCache
		tokens := 0
		for i := 0; i < b.N; i++ {
			memo = NewPromptCache(0)
			tokens = assembleAll(memo, sched, prefix)
		}
		report(b, memo, tokens)
	})
	b.Run("warm", func(b *testing.B) {
		memo := NewPromptCache(0)
		assembleAll(memo, sched, prefix)
		b.ReportAllocs()
		b.ResetTimer()
		tokens := 0
		for i := 0; i < b.N; i++ {
			tokens = assembleAll(memo, sched, prefix)
		}
		report(b, memo, tokens)
	})
}

// TestPromptCacheConcurrentStages shares one memo between stages assembling
// at once, as concurrent batch flushes of the serving runtime do, with a
// capacity small enough that evictions race with lookups: every prompt
// still decodes to its rendered text.
func TestPromptCacheConcurrentStages(t *testing.T) {
	sched, prefix := stagePromptsFixture(t)
	memo := NewPromptCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prompts := memo.stage(prefix)
			for i := range sched.Rows {
				row := sched.Rows[(i+g*37)%len(sched.Rows)]
				if got, want := memo.tok.Decode(prompts.prompt(row.Cells)), prefix+RowJSON(row.Cells); got != want {
					t.Errorf("stage %d, row %d: prompt decodes to %q, want %q", g, row.Source, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
