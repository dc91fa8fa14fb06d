// Package query implements the LLM-query layer of the reproduction: the
// generic LLM operator over relational tables (Sec. 3.1), prompt
// construction (Sec. 5 / Appendix C), the five query types of the benchmark
// suite (Sec. 6.1.2), and the executor that wires reordering schedules into
// the serving simulator.
package query

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/tokenizer"
)

// SystemPrompt is the shared instruction prefix (Appendix C). Because it is
// identical across every request of a query, it is the floor of each
// baseline's prefix hit rate.
const SystemPrompt = "You are a data analyst. Use the provided JSON data to answer the user query " +
	"based on the specified fields. Respond with only the answer, no extra formatting."

// PromptPrefix renders the static part of every request of a query: system
// prompt plus the user's question. It ends at a hard token boundary so the
// per-row JSON payload never merges into the shared prefix.
func PromptPrefix(userPrompt string) string {
	var sb strings.Builder
	sb.WriteString(SystemPrompt)
	sb.WriteString("\nAnswer the below query:\n")
	sb.WriteString(userPrompt)
	sb.WriteString("\nGiven the following data:\n")
	return sb.String()
}

// RowJSON serializes a scheduled row as a JSON object whose keys appear in
// the schedule's field order (Sec. 5: JSON encoding ties field names to
// values for the LLM; key order is what the reordering algorithms optimize).
// The serving path never renders it: stagePrompts assembles the same tokens
// from memoized per-cell runs.
func RowJSON(cells []core.Cell) string {
	buf := []byte{'{'}
	for i, c := range cells {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendFragment(buf, c)
	}
	return string(append(buf, '}'))
}

// appendFragment appends one cell's JSON member, "field": "value".
func appendFragment(dst []byte, c core.Cell) []byte {
	dst = strconv.AppendQuote(dst, c.Field)
	dst = append(dst, ": "...)
	return strconv.AppendQuote(dst, c.Value)
}

// BuildPrompt assembles the full request text for one scheduled row.
func BuildPrompt(userPrompt string, cells []core.Cell) string {
	return PromptPrefix(userPrompt) + RowJSON(cells)
}

// stagePrompts assembles one stage's request prompts from memoized token
// runs: the prefix, "{", the cells' fragments separated by ", ", and "}".
// The tokens equal those of the rendered text prefix+RowJSON(cells): every
// fragment begins and ends with '"', a one-byte non-word segment, and each
// separator ends in a space that precedes a '"', so the tokenizer never
// forms a segment across a run boundary. Not safe for concurrent use; one
// stage owns it.
type stagePrompts struct {
	memo                     *PromptCache
	prefix, open, sep, close []tokenizer.Token
	runs                     [][]tokenizer.Token // per-row scratch: one run per cell
	missed                   []int               // per-row scratch: cells the memo lacked
	buf                      []byte              // fragment-rendering scratch
}

// stage returns the assembler for a stage whose requests begin with the
// prefix text; the prefix and the separators are resolved once, here.
func (p *PromptCache) stage(prefix string) *stagePrompts {
	return &stagePrompts{
		memo:   p,
		prefix: p.Encode(prefix),
		open:   p.tok.Encode("{"),
		sep:    p.tok.Encode(", "),
		close:  p.tok.Encode("}"),
	}
}

// prompt returns a fresh slice holding the tokens of prefix+RowJSON(cells).
func (s *stagePrompts) prompt(cells []core.Cell) []tokenizer.Token {
	s.resolve(cells)
	n := len(s.prefix) + len(s.open) + len(s.close)
	for i, r := range s.runs {
		if i > 0 {
			n += len(s.sep)
		}
		n += len(r)
	}
	out := make([]tokenizer.Token, 0, n)
	out = append(out, s.prefix...)
	out = append(out, s.open...)
	for i, r := range s.runs {
		if i > 0 {
			out = append(out, s.sep...)
		}
		out = append(out, r...)
	}
	return append(out, s.close...)
}

// resolve fills s.runs with the tokens of each cell's fragment: the whole
// row is looked up under one memo-lock acquisition, and the misses are
// tokenized outside it, as PromptCache.Encode does.
func (s *stagePrompts) resolve(cells []core.Cell) {
	p := s.memo
	s.runs = slices.Grow(s.runs[:0], len(cells))[:len(cells)]
	s.missed = s.missed[:0]
	p.mu.Lock()
	for i, c := range cells {
		toks, ok := p.lru.get(promptKey{Cell: c})
		if !ok {
			s.missed = append(s.missed, i)
		}
		s.runs[i] = toks
	}
	p.mu.Unlock()
	p.hits.Add(int64(len(cells) - len(s.missed)))
	if len(s.missed) == 0 {
		return
	}
	p.misses.Add(int64(len(s.missed)))
	for _, i := range s.missed {
		s.buf = appendFragment(s.buf[:0], cells[i])
		s.runs[i] = p.tok.Encode(string(s.buf))
	}
	p.mu.Lock()
	for _, i := range s.missed {
		// put keeps an entry a concurrent stage stored first; both hold the
		// same tokens, since they come from the one tokenizer.
		p.lru.put(promptKey{Cell: cells[i]}, s.runs[i])
	}
	p.mu.Unlock()
}
