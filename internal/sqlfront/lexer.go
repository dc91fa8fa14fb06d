// Package sqlfront implements the SQL surface of the paper's interface: a
// lexer, parser, logical planner, and executor for an LLM-query analytics
// dialect. FROM clauses join any number of registered tables with inner
// equi-joins; SELECT lists mix plain columns, LLM('prompt', fields...)
// calls, and aggregates; WHERE clauses are boolean trees over LLM predicates
// and plain-column comparisons (all six operators); GROUP BY / HAVING /
// multi-key ORDER BY / LIMIT shape the output. Columns may be qualified with
// the table name or alias (alias.column) anywhere a column is legal.
// Statements execute one at a time through DB.ExecContext, repeatedly
// through DB.Prepare, and concurrently — with cross-query batching and
// result caching — through internal/runtime, which injects itself via
// ExecConfig.StageRunner.
//
// Grammar (case-insensitive keywords; "..." are terminals):
//
//	query      = "SELECT" selectList "FROM" tableRef { "JOIN" tableRef "ON" colRef "=" colRef }
//	             [ "WHERE" expr ]
//	             [ "GROUP" "BY" colRef { "," colRef } ]
//	             [ "HAVING" havingExpr ]
//	             [ "ORDER" "BY" orderItem { "," orderItem } ]
//	             [ "LIMIT" number ] .
//	tableRef   = ident [ "AS" ident ] .
//	selectList = selectItem { "," selectItem } .
//	selectItem = "*"
//	           | aggFunc "(" ( llm | colRef | "*" ) ")" [ "AS" ident ]
//	           | llm [ "AS" ident ]
//	           | colRef [ "AS" ident ] .
//	aggFunc    = "AVG" | "COUNT" | "SUM" | "MIN" | "MAX" .  (* "*" only under COUNT *)
//	llm        = "LLM" "(" string { "," field } ")" .
//	field      = colRef | "*" | ident "." "*" .
//	colRef     = ident [ "." ident ] .
//	orderItem  = colRef [ "ASC" | "DESC" ] .
//	expr       = andExpr { "OR" andExpr } .
//	andExpr    = notExpr { "AND" notExpr } .
//	notExpr    = "NOT" notExpr | "(" expr ")" | comparison .
//	comparison = ( llm | colRef ) compareOp ( string | number ) .
//	havingExpr = like expr, but a comparison's left side may additionally be
//	             aggFunc "(" ( llm | colRef | "*" ) ")" .
//	compareOp  = "=" | "<>" | "!=" | "<" | "<=" | ">" | ">=" .
//	string     = "'" chars-with-''-escape "'" .
//	number     = digits [ "." digits ] .
//	ident      = bare identifier (letters, digits, "_", "/")
//	           | '"' chars-with-""-escape '"' .   (* non-empty *)
//
// Statements compile through a logical planner (plan.go) that pushes each
// table-local LLM-free predicate below the join onto its base table, places
// the join ahead of every model stage so LLM calls see only the
// joined-and-filtered relation, runs each distinct LLM call exactly once per
// statement, and orders multiple LLM filter stages cheapest-first using
// estimated per-call prompt cost and selectivity (cost.go). Every query
// therefore benefits from request reordering, predicate and join pushdown,
// invocation dedup, and cost-based filter ordering transparently;
// ExecConfig.Naive reverts all of it for A/B measurement.
package sqlfront

import (
	"fmt"
	"strings"
)

// tokenKind enumerates lexical classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokStar
	tokDot
	tokEq
	tokNeq
	tokLt
	tokLe
	tokGt
	tokGe
	tokKeyword
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string literal"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokStar:
		return "'*'"
	case tokDot:
		return "'.'"
	case tokEq:
		return "'='"
	case tokNeq:
		return "'<>'"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokKeyword:
		return "keyword"
	}
	return "unknown token"
}

// keywords of the dialect (case-insensitive). LLM and the aggregate names are
// recognized as keywords so the parser can dispatch without lookahead. A
// column that collides with a keyword is still reachable via a double-quoted
// identifier ("and", "count", ...).
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AS": true,
	"JOIN": true, "ON": true,
	"LLM": true,
	"AVG": true, "COUNT": true, "SUM": true, "MIN": true, "MAX": true,
	"AND": true, "OR": true, "NOT": true,
	"GROUP": true, "BY": true, "ORDER": true, "HAVING": true,
	"ASC": true, "DESC": true, "LIMIT": true,
}

type token struct {
	kind tokenKind
	text string // keyword text is upper-cased; strings are unquoted
	pos  int    // byte offset for error messages
}

type lexer struct {
	src string
	i   int
}

// lex tokenizes the whole input eagerly; LLM queries are short.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.i < len(l.src) && isSpace(l.src[l.i]) {
		l.i++
	}
	if l.i >= len(l.src) {
		return token{kind: tokEOF, pos: l.i}, nil
	}
	start := l.i
	c := l.src[l.i]
	switch {
	case c == '(':
		l.i++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.i++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == ',':
		l.i++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '*':
		l.i++
		return token{kind: tokStar, text: "*", pos: start}, nil
	case c == '.':
		l.i++
		return token{kind: tokDot, text: ".", pos: start}, nil
	case c == '=':
		l.i++
		return token{kind: tokEq, text: "=", pos: start}, nil
	case c == '<':
		if l.i+1 < len(l.src) && l.src[l.i+1] == '>' {
			l.i += 2
			return token{kind: tokNeq, text: "<>", pos: start}, nil
		}
		if l.i+1 < len(l.src) && l.src[l.i+1] == '=' {
			l.i += 2
			return token{kind: tokLe, text: "<=", pos: start}, nil
		}
		l.i++
		return token{kind: tokLt, text: "<", pos: start}, nil
	case c == '>':
		if l.i+1 < len(l.src) && l.src[l.i+1] == '=' {
			l.i += 2
			return token{kind: tokGe, text: ">=", pos: start}, nil
		}
		l.i++
		return token{kind: tokGt, text: ">", pos: start}, nil
	case c == '!':
		if l.i+1 < len(l.src) && l.src[l.i+1] == '=' {
			l.i += 2
			return token{kind: tokNeq, text: "!=", pos: start}, nil
		}
		return token{}, fmt.Errorf("sql: unexpected '!' at offset %d (did you mean '!=')", start)
	case c == '\'':
		return l.stringLit()
	case c == '"':
		return l.quotedIdent()
	case isDigit(c):
		return l.number()
	case isIdentStart(c):
		return l.ident()
	}
	return token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}

// stringLit scans a single-quoted literal with ” as the escape for a quote.
func (l *lexer) stringLit() (token, error) {
	start := l.i
	l.i++ // opening quote
	var sb strings.Builder
	for l.i < len(l.src) {
		c := l.src[l.i]
		if c == '\'' {
			if l.i+1 < len(l.src) && l.src[l.i+1] == '\'' {
				sb.WriteByte('\'')
				l.i += 2
				continue
			}
			l.i++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(c)
		l.i++
	}
	return token{}, fmt.Errorf("sql: unterminated string starting at offset %d", start)
}

// quotedIdent scans a double-quoted identifier (for columns like
// "beer/beerId" whose bare form would not lex, or columns shadowed by a
// keyword). "" escapes a literal quote, mirroring the string-literal rule,
// and the empty identifier "" is rejected.
func (l *lexer) quotedIdent() (token, error) {
	start := l.i
	l.i++ // opening quote
	var sb strings.Builder
	for l.i < len(l.src) {
		c := l.src[l.i]
		if c == '"' {
			if l.i+1 < len(l.src) && l.src[l.i+1] == '"' {
				sb.WriteByte('"')
				l.i += 2
				continue
			}
			l.i++
			if sb.Len() == 0 {
				return token{}, fmt.Errorf("sql: empty quoted identifier at offset %d", start)
			}
			return token{kind: tokIdent, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(c)
		l.i++
	}
	return token{}, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
}

// number scans an unsigned numeric literal: digits with an optional single
// fractional part (42, 4.5). The raw text is preserved so rendering
// round-trips exactly.
func (l *lexer) number() (token, error) {
	start := l.i
	for l.i < len(l.src) && isDigit(l.src[l.i]) {
		l.i++
	}
	if l.i+1 < len(l.src) && l.src[l.i] == '.' && isDigit(l.src[l.i+1]) {
		l.i++
		for l.i < len(l.src) && isDigit(l.src[l.i]) {
			l.i++
		}
	}
	return token{kind: tokNumber, text: l.src[start:l.i], pos: start}, nil
}

func (l *lexer) ident() (token, error) {
	start := l.i
	for l.i < len(l.src) && isIdentPart(l.src[l.i]) {
		l.i++
	}
	text := l.src[start:l.i]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		return token{kind: tokKeyword, text: upper, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// isIdentPart additionally admits '/' and digits so raw RateBeer-style
// column names (review/overall) lex as single identifiers.
func isIdentPart(c byte) bool {
	return isIdentStart(c) || c == '/' || (c >= '0' && c <= '9')
}
