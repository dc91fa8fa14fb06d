// Package datagen synthesizes the paper's seven evaluation datasets
// (Table 1 / Appendix B). The originals are real corpora we cannot ship;
// the generators reproduce the properties the reordering algorithms and the
// KV cache actually interact with: row and field counts, value-length
// distributions (in tokens), per-column cardinalities, entity join structure
// (many reviews per movie/product/post/beer), functional dependencies, and
// topic-skewed sharing for the RAG corpora.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/tokenizer"
)

// Options configures every generator.
type Options struct {
	// Scale multiplies row counts (1.0 = the paper's dataset sizes). Entity
	// counts scale proportionally so rows-per-entity ratios are preserved.
	Scale float64
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// scaled applies the scale to a full-size count, with a floor of 1.
func (o Options) scaled(full int) int {
	n := int(float64(full) * o.scale())
	if n < 1 {
		n = 1
	}
	return n
}

// textGen produces deterministic pseudo-English text with a controllable
// token budget. A fixed syllable-composed vocabulary keeps the token/char
// ratio realistic without shipping a corpus.
type textGen struct {
	r       *rand.Rand
	vocab   []string
	tokCost []int // tokens contributed by " "+word
	zipf    *rand.Zipf
}

const vocabSize = 4096

func newTextGen(seed int64) *textGen {
	r := rand.New(rand.NewSource(seed))
	g := &textGen{r: r}
	g.vocab = make([]string, vocabSize)
	g.tokCost = make([]int, vocabSize)
	sylA := []string{"ba", "co", "di", "fen", "gra", "hol", "jin", "kel", "lor", "mun", "nar", "pel", "qui", "ros", "sta", "tur", "vel", "wex", "yor", "zan"}
	sylB := []string{"da", "ler", "min", "tor", "ven", "ska", "ri", "no", "bel", "chu", "dr", "ek", "fu", "gi", "ho", "ja"}
	sylC := []string{"", "", "", "s", "ing", "ed", "ly", "er", "tion", "ment"}
	for i := range g.vocab {
		w := sylA[r.Intn(len(sylA))] + sylB[r.Intn(len(sylB))]
		if r.Intn(2) == 0 {
			w += sylB[r.Intn(len(sylB))]
		}
		w += sylC[r.Intn(len(sylC))]
		g.vocab[i] = w
		g.tokCost[i] = tokenizer.Count(" " + w)
	}
	// Zipf-distributed word choice (s=1.1) mimics natural text frequency.
	g.zipf = rand.NewZipf(r, 1.1, 1.0, vocabSize-1)
	return g
}

// wordAt picks a vocabulary index with Zipf skew.
func (g *textGen) wordAt() int { return int(g.zipf.Uint64()) }

// Sentence produces text of approximately targetTokens tokens (within one
// word of the target) with simple punctuation.
func (g *textGen) sentence(targetTokens int) string {
	if targetTokens <= 0 {
		return ""
	}
	var sb strings.Builder
	tokens := 0
	sinceBreak := 0
	for tokens < targetTokens {
		i := g.wordAt()
		if sb.Len() == 0 {
			sb.WriteString(g.vocab[i])
			tokens += tokenizer.Count(g.vocab[i])
		} else {
			sb.WriteByte(' ')
			sb.WriteString(g.vocab[i])
			tokens += g.tokCost[i]
		}
		sinceBreak++
		if sinceBreak >= 9+g.r.Intn(6) && tokens < targetTokens-2 {
			sb.WriteByte('.')
			tokens++
			sinceBreak = 0
		}
	}
	sb.WriteByte('.')
	return sb.String()
}

// phrase produces nWords space-separated words (titles, names).
func (g *textGen) phrase(nWords int) string {
	parts := make([]string, nWords)
	for i := range parts {
		parts[i] = g.vocab[g.wordAt()]
	}
	return strings.Join(parts, " ")
}

// rarePhrase draws uniformly from the rare half of the vocabulary, avoiding
// the Zipf-common head that dominates running text.
func (g *textGen) rarePhrase(nWords int) string {
	parts := make([]string, nWords)
	for i := range parts {
		parts[i] = g.vocab[vocabSize/2+g.r.Intn(vocabSize/2)]
	}
	return strings.Join(parts, " ")
}

// title is phrase with initial capitals.
func (g *textGen) title(nWords int) string {
	parts := make([]string, nWords)
	for i := range parts {
		w := g.vocab[g.wordAt()]
		parts[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(parts, " ")
}

// slug produces an identifier-like token chain (URLs, ASINs).
func (g *textGen) slug(nWords int) string {
	parts := make([]string, nWords)
	for i := range parts {
		parts[i] = g.vocab[g.r.Intn(len(g.vocab))]
	}
	return strings.Join(parts, "-")
}

// pick returns a uniform element of a slice.
func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// zipfIndex draws an index in [0, n) with Zipf skew s over a dedicated
// sampler (callers cache the sampler; this helper builds cheap one-offs for
// small n).
func newZipf(r *rand.Rand, s float64, n int) *rand.Zipf {
	if n < 1 {
		n = 1
	}
	return rand.NewZipf(r, s, 1.0, uint64(n-1))
}

// shuffled returns a random permutation of [0, n).
func shuffled(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// fmtRating renders a bounded numeric score like "17/20".
func fmtRating(r *rand.Rand, maxVal int) string {
	return fmt.Sprintf("%d/%d", 1+r.Intn(maxVal), maxVal)
}
