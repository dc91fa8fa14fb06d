// Package tokenizer implements a deterministic subword tokenizer used by the
// serving simulator and the reordering benchmarks.
//
// The real system tokenizes prompts with the Llama-3 BPE tokenizer before
// they reach the KV cache. For reproducing the paper's experiments the exact
// merge table is irrelevant; what matters is that the mapping from text to
// tokens is (a) deterministic, (b) prefix-stable — two texts that share a
// prefix ending at a word boundary produce token streams that share the
// corresponding prefix — and (c) has a realistic compression ratio (roughly
// four characters per token on English-like text). This tokenizer provides
// all three with a greedy word/piece splitter and an online-interned
// vocabulary.
package tokenizer

import (
	"strings"
	"sync"
	"unicode"
)

// Token is a vocabulary identifier. IDs are assigned in order of first
// appearance, so a tokenizer fed the same inputs in the same order always
// produces the same IDs.
type Token int32

// maxPiece is the longest surface string a single token may cover. Words
// longer than maxPiece are split into maxPiece-sized chunks, mimicking how
// BPE fragments rare long words.
const maxPiece = 7

// chunk is the piece size used when fragmenting long words.
const chunk = 4

// Tokenizer converts text to token IDs and back. It is safe for concurrent
// use. The zero value is not usable; call New.
type Tokenizer struct {
	mu     sync.RWMutex
	ids    map[string]Token // guarded by mu
	pieces []string         // guarded by mu
}

// New returns an empty tokenizer. Vocabulary entries are created on demand
// as texts are encoded.
func New() *Tokenizer {
	return &Tokenizer{ids: make(map[string]Token, 4096)}
}

// VocabSize reports how many distinct pieces have been interned so far.
func (t *Tokenizer) VocabSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pieces)
}

// Encode converts text into a sequence of tokens. Concatenating the decoded
// pieces reproduces the input exactly. Pieces are interned as the walk finds
// them, so Encode allocates only the returned slice and the new vocabulary
// entries.
func (t *Tokenizer) Encode(text string) []Token {
	out := make([]Token, 0, Count(text))
	t.mu.Lock()
	each(text, func(p string) {
		id, ok := t.ids[p]
		if !ok {
			// Clone so the vocabulary does not pin the caller's whole text.
			p = strings.Clone(p)
			id = Token(len(t.pieces))
			t.ids[p] = id
			t.pieces = append(t.pieces, p)
		}
		out = append(out, id)
	})
	t.mu.Unlock()
	return out
}

// Decode reconstructs the text for a token sequence produced by Encode on
// this tokenizer. Unknown IDs decode to the empty string.
func (t *Tokenizer) Decode(tokens []Token) string {
	var sb strings.Builder
	t.mu.RLock()
	for _, id := range tokens {
		if int(id) >= 0 && int(id) < len(t.pieces) {
			sb.WriteString(t.pieces[int(id)])
		}
	}
	t.mu.RUnlock()
	return sb.String()
}

// Count reports the number of tokens Encode would produce for text without
// touching the vocabulary. It is the hot path for PHC length computations.
func (t *Tokenizer) Count(text string) int {
	return Count(text)
}

// Count reports the number of tokens the splitter produces for text. It is a
// pure function of the text and needs no tokenizer state.
func Count(text string) int {
	n := 0
	walk(text, func(start, end int) {
		n += piecesFor(end - start)
	})
	return n
}

// Split breaks text into surface pieces, one per token. Exported for tests
// and for tools that need piece boundaries.
func Split(text string) []string {
	var out []string
	each(text, func(p string) { out = append(out, p) })
	return out
}

// each invokes fn for every surface piece of text in order: one per walk
// segment, except that segments longer than maxPiece are fragmented into
// chunk-sized pieces. The first chunk keeps any leading space so decode
// remains exact.
func each(text string, fn func(piece string)) {
	walk(text, func(start, end int) {
		seg := text[start:end]
		if len(seg) <= maxPiece {
			fn(seg)
			return
		}
		for len(seg) > 0 {
			c := chunk
			if c > len(seg) {
				c = len(seg)
			}
			fn(seg[:c])
			seg = seg[c:]
		}
	})
}

// piecesFor reports how many tokens a segment of segLen bytes becomes.
func piecesFor(segLen int) int {
	if segLen <= maxPiece {
		return 1
	}
	return (segLen + chunk - 1) / chunk
}

// walk invokes fn for each segment boundary in text. A segment is a maximal
// run of letters/digits, optionally with one leading space, or a single
// non-alphanumeric byte. Segmentation depends only on the bytes to the left
// of each boundary, which is what makes the tokenizer prefix-stable.
func walk(text string, fn func(start, end int)) {
	i := 0
	n := len(text)
	for i < n {
		start := i
		// A single leading space attaches to the following word, mirroring
		// the "Ġ"-prefixed pieces of GPT-style vocabularies.
		if text[i] == ' ' {
			i++
			if i >= n || !isWordByte(text[i]) {
				fn(start, i)
				continue
			}
		}
		if isWordByte(text[i]) {
			for i < n && isWordByte(text[i]) {
				i++
			}
			fn(start, i)
			continue
		}
		// Punctuation and control bytes are one token each.
		i++
		fn(start, i)
	}
}

func isWordByte(b byte) bool {
	if b < 0x80 {
		return b == '_' || unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b))
	}
	// Treat multi-byte UTF-8 continuation uniformly as word material; the
	// synthetic corpora are ASCII so this path is rarely taken.
	return true
}
