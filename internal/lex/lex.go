// Package lex is the tokenizer of both written languages: algebra= scripts
// (internal/algebra/parse) and deductive programs (internal/datalog). It
// knows identifiers, integers, quoted strings, %-comments, punctuation and
// the operators of either language; each parser keeps its own grammar, refuses
// the tokens it has no use for, and words its own syntax errors. What they
// share is the token stream, the kinds' names, and the "line:col: message"
// form of every parse error (Pos.Errorf).
//
// A token's text is a substring of the source (a string literal's is
// unquoted), so lexing allocates nothing per token; what a parse result keeps
// of a name or a string its parser copies first (strings.Clone), so that no
// parsed value pins the whole source.
package lex

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Kind is what a token is.
type Kind uint8

// The token kinds.
const (
	EOF Kind = iota
	Ident
	Int // digits, or '-' right before them
	String
	LParen
	RParen
	LBrace
	RBrace
	Comma
	Semi
	Dot
	Eq // Eq … Ge: the comparison operators
	Ne
	Lt
	Le
	Gt
	Ge
	Plus
	Minus
	Star
	Backslash
	Arrow   // ->
	Implies // :-
)

var names = [...]string{
	EOF: "end of input", Ident: "identifier", Int: "integer", String: "string",
	LParen: "'('", RParen: "')'", LBrace: "'{'", RBrace: "'}'", Comma: "','", Semi: "';'", Dot: "'.'",
	Eq: "'='", Ne: "'!='", Lt: "'<'", Le: "'<='", Gt: "'>'", Ge: "'>='",
	Plus: "'+'", Minus: "'-'", Star: "'*'", Backslash: `'\'`, Arrow: "'->'", Implies: "':-'",
}

// String names the kind as parse errors quote it: "identifier", "end of
// input", or the punctuation itself in quotes.
func (k Kind) String() string { return names[k] }

// IsCmp reports whether k is one of the comparison operators = != < <= > >=.
func (k Kind) IsCmp() bool { return k >= Eq && k <= Ge }

// Pos is a place in the source: a line and a column, both from 1, the column
// counting bytes.
type Pos struct{ Line, Col int }

// Errorf formats an error at p as "line:col: message".
func (p Pos) Errorf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", p.Line, p.Col, fmt.Sprintf(format, args...))
}

// Token is one lexeme and where it starts.
type Token struct {
	Kind Kind
	Text string
	Pos
}

// Lexer reads the tokens of one source text.
type Lexer struct {
	src string
	pos int
	at  Pos
}

// New returns a lexer at the start of src.
func New(src string) *Lexer { return &Lexer{src: src, at: Pos{1, 1}} }

// Next returns the next token; at the end of the source it returns EOF
// tokens. Blanks and comments are the only input that spans lines: a token
// never holds a newline (a string literal with one is an error), so its width
// is its column count.
func (l *Lexer) Next() (Token, error) {
	l.skipBlanks()
	start, at := l.pos, l.at
	if start == len(l.src) {
		return Token{Kind: EOF, Pos: at}, nil
	}
	kind, err := l.scan()
	if err != nil {
		return Token{}, at.Errorf("%s", err)
	}
	l.at.Col += l.pos - start
	text := l.src[start:l.pos]
	if kind == String {
		// strconv.Unquote is the exact inverse of the strconv.Quote used
		// when printing string values.
		if text, err = strconv.Unquote(text); err != nil {
			return Token{}, at.Errorf("bad string literal %s: %v", l.src[start:l.pos], err)
		}
	}
	return Token{kind, text, at}, nil
}

// skipBlanks moves past white space and %-comments, counting lines.
func (l *Lexer) skipBlanks() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '\n':
			l.pos++
			l.at = Pos{l.at.Line + 1, 1}
		case ' ', '\t', '\r':
			l.pos++
			l.at.Col++
		case '%':
			n := strings.IndexByte(l.src[l.pos:], '\n')
			if n < 0 {
				n = len(l.src) - l.pos
			}
			l.pos += n
			l.at.Col += n
		default:
			return
		}
	}
}

// scan moves past the token at l.pos and returns its kind.
func (l *Lexer) scan() (Kind, error) {
	b := l.src[l.pos]
	l.pos++
	switch b {
	case '(':
		return LParen, nil
	case ')':
		return RParen, nil
	case '{':
		return LBrace, nil
	case '}':
		return RBrace, nil
	case ',':
		return Comma, nil
	case ';':
		return Semi, nil
	case '.':
		return Dot, nil
	case '=':
		return Eq, nil
	case '+':
		return Plus, nil
	case '*':
		return Star, nil
	case '\\':
		return Backslash, nil
	case '!':
		if l.skip('=') {
			return Ne, nil
		}
		return 0, errors.New("unexpected '!'")
	case ':':
		if l.skip('-') {
			return Implies, nil
		}
		return 0, errors.New("unexpected ':'")
	case '<':
		if l.skip('=') {
			return Le, nil
		}
		return Lt, nil
	case '>':
		if l.skip('=') {
			return Ge, nil
		}
		return Gt, nil
	case '-':
		if l.skip('>') {
			return Arrow, nil
		}
		if l.digits() > 0 {
			return Int, nil
		}
		return Minus, nil
	case '"':
		for ; l.pos < len(l.src) && l.src[l.pos] != '\n'; l.pos++ {
			switch l.src[l.pos] {
			case '\\':
				if l.pos++; l.pos == len(l.src) {
					return 0, errors.New("unterminated escape")
				}
			case '"':
				l.pos++
				return String, nil
			}
		}
		return 0, errors.New("unterminated string")
	}
	switch {
	case b >= '0' && b <= '9':
		l.digits()
		return Int, nil
	case isIdentByte(b, true):
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos], false) {
			l.pos++
		}
		return Ident, nil
	}
	_, n := utf8.DecodeRuneInString(l.src[l.pos-1:])
	return 0, fmt.Errorf("unexpected character %q", l.src[l.pos-1:l.pos-1+n])
}

// skip moves past the next byte if it is b, and reports whether it was.
func (l *Lexer) skip(b byte) bool {
	if l.pos < len(l.src) && l.src[l.pos] == b {
		l.pos++
		return true
	}
	return false
}

// digits moves past a run of decimal digits and returns its length.
func (l *Lexer) digits() int {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	return l.pos - start
}

func isIdentByte(b byte, start bool) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_':
		return true
	case b >= '0' && b <= '9':
		return !start
	default:
		return false
	}
}
