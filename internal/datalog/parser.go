package datalog

import (
	"fmt"
	"strconv"
	"strings"

	"algrec/internal/builtin"
	"algrec/internal/value"
)

// ParseProgram parses a deductive program in the concrete syntax:
//
//	% transitive closure
//	edge(1, 2).  edge(2, 3).
//	tc(X, Y) :- edge(X, Y).
//	tc(X, Z) :- tc(X, Y), edge(Y, Z).
//	win(X) :- move(X, Y), not win(Y).
//	big(Y)  :- num(X), Y = plus(X, 10), Y >= 12.
//
// Variables are uppercase identifiers, symbols are lowercase identifiers,
// integers and double-quoted strings are constants, and lowercase identifiers
// applied to arguments in term position are interpreted function symbols
// (internal/builtin's table, which also fixes their argument counts). `not`
// negates a body atom.
func ParseProgram(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.tok.kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	return prog, nil
}

// MustParse parses src and panics on error; intended for tests and examples.
func MustParse(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokVar
	tokInt
	tokString
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokPeriod
	tokImplies // :-
	tokEq
	tokNe
	tokLt
	tokLe
	tokGt
	tokGe
)

// tokNames holds what parse errors call each token kind.
var tokNames = [...]string{
	tokEOF: "end of input", tokIdent: "identifier", tokVar: "variable", tokInt: "integer", tokString: "string",
	tokLParen: "'('", tokRParen: "')'", tokLBrace: "'{'", tokRBrace: "'}'", tokComma: "','", tokPeriod: "'.'",
	tokImplies: "':-'", tokEq: "'='", tokNe: "'!='", tokLt: "'<'", tokLe: "'<='", tokGt: "'>'", tokGe: "'>='",
}

// String names the token kind as parse errors quote it: "identifier",
// "end of input", or the punctuation itself in quotes.
func (k tokKind) String() string {
	if int(k) < len(tokNames) {
		return tokNames[k]
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) nextByte() byte {
	b := l.src[l.pos]
	l.pos++
	if b == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return b
}

func (l *lexer) errf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (l *lexer) lex() (token, error) {
	for {
		b, ok := l.peekByte()
		if !ok {
			return token{kind: tokEOF, line: l.line, col: l.col}, nil
		}
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			l.nextByte()
			continue
		case b == '%':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.nextByte()
			}
			continue
		}
		break
	}
	line, col := l.line, l.col
	b := l.nextByte()
	switch {
	case b == '(':
		return token{tokLParen, "(", line, col}, nil
	case b == ')':
		return token{tokRParen, ")", line, col}, nil
	case b == '{':
		return token{tokLBrace, "{", line, col}, nil
	case b == '}':
		return token{tokRBrace, "}", line, col}, nil
	case b == ',':
		return token{tokComma, ",", line, col}, nil
	case b == '.':
		return token{tokPeriod, ".", line, col}, nil
	case b == '=':
		return token{tokEq, "=", line, col}, nil
	case b == '!':
		if c, ok := l.peekByte(); ok && c == '=' {
			l.nextByte()
			return token{tokNe, "!=", line, col}, nil
		}
		return token{}, l.errf(line, col, "unexpected '!'")
	case b == '<':
		if c, ok := l.peekByte(); ok && c == '=' {
			l.nextByte()
			return token{tokLe, "<=", line, col}, nil
		}
		return token{tokLt, "<", line, col}, nil
	case b == '>':
		if c, ok := l.peekByte(); ok && c == '=' {
			l.nextByte()
			return token{tokGe, ">=", line, col}, nil
		}
		return token{tokGt, ">", line, col}, nil
	case b == ':':
		if c, ok := l.peekByte(); ok && c == '-' {
			l.nextByte()
			return token{tokImplies, ":-", line, col}, nil
		}
		return token{}, l.errf(line, col, "unexpected ':'")
	case b == '"':
		// Collect the raw quoted literal and delegate unescaping to
		// strconv.Unquote, the exact inverse of the strconv.Quote used when
		// printing string values — whatever the printer emits, the lexer
		// reads back.
		var raw strings.Builder
		raw.WriteByte('"')
		for {
			c, ok := l.peekByte()
			if !ok || c == '\n' {
				return token{}, l.errf(line, col, "unterminated string literal")
			}
			l.nextByte()
			raw.WriteByte(c)
			if c == '\\' {
				e, ok := l.peekByte()
				if !ok {
					return token{}, l.errf(line, col, "unterminated string escape")
				}
				l.nextByte()
				raw.WriteByte(e)
				continue
			}
			if c == '"' {
				s, err := strconv.Unquote(raw.String())
				if err != nil {
					return token{}, l.errf(line, col, "bad string literal %s: %v", raw.String(), err)
				}
				return token{tokString, s, line, col}, nil
			}
		}
	case b == '-' || (b >= '0' && b <= '9'):
		var sb strings.Builder
		sb.WriteByte(b)
		if b == '-' {
			c, ok := l.peekByte()
			if !ok || c < '0' || c > '9' {
				return token{}, l.errf(line, col, "expected digit after '-'")
			}
		}
		for {
			c, ok := l.peekByte()
			if !ok || c < '0' || c > '9' {
				break
			}
			sb.WriteByte(l.nextByte())
		}
		return token{tokInt, sb.String(), line, col}, nil
	case isIdentStart(b):
		var sb strings.Builder
		sb.WriteByte(b)
		for {
			c, ok := l.peekByte()
			if !ok || !isIdentPart(c) {
				break
			}
			sb.WriteByte(l.nextByte())
		}
		text := sb.String()
		if b >= 'A' && b <= 'Z' {
			return token{tokVar, text, line, col}, nil
		}
		return token{tokIdent, text, line, col}, nil
	default:
		return token{}, l.errf(line, col, "unexpected character %q", string(b))
	}
}

func isIdentStart(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b == '_'
}

func isIdentPart(b byte) bool {
	return isIdentStart(b) || (b >= '0' && b <= '9')
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) next() error {
	t, err := p.lex.lex()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errf("expected %s, got %s %q", k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	if err := p.next(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) parseRule() (Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return Rule{}, err
	}
	r := Rule{Head: head}
	switch p.tok.kind {
	case tokPeriod:
		if err := p.next(); err != nil {
			return Rule{}, err
		}
		return r, nil
	case tokImplies:
		if err := p.next(); err != nil {
			return Rule{}, err
		}
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return Rule{}, err
			}
			r.Body = append(r.Body, lit)
			if p.tok.kind == tokComma {
				if err := p.next(); err != nil {
					return Rule{}, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return Rule{}, err
		}
		return r, nil
	default:
		return Rule{}, p.errf("expected '.' or ':-' after rule head, got %s %q", p.tok.kind, p.tok.text)
	}
}

// parseAtom parses pred or pred(t1, ..., tn) where pred is a lowercase
// identifier.
func (p *parser) parseAtom() (Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return Atom{}, err
	}
	a := Atom{Pred: name.text}
	if p.tok.kind != tokLParen {
		return a, nil
	}
	if err := p.next(); err != nil {
		return Atom{}, err
	}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		a.Args = append(a.Args, t)
		if p.tok.kind == tokComma {
			if err := p.next(); err != nil {
				return Atom{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Atom{}, err
	}
	return a, nil
}

func (p *parser) parseTerm() (Term, error) {
	switch p.tok.kind {
	case tokLParen:
		// Tuple literal (t1, ..., tn) — sugar for tup(t1, ..., tn), needed
		// so printed tuple constants re-parse.
		if err := p.next(); err != nil {
			return nil, err
		}
		app := Apply{Fn: "tup"}
		for p.tok.kind != tokRParen {
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			app.Args = append(app.Args, t)
			if p.tok.kind == tokComma {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return app, nil
	case tokLBrace:
		// Set literal {t1, ..., tn} — sugar for set(t1, ..., tn).
		if err := p.next(); err != nil {
			return nil, err
		}
		app := Apply{Fn: "set"}
		for p.tok.kind != tokRBrace {
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			app.Args = append(app.Args, t)
			if p.tok.kind == tokComma {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return app, nil
	case tokVar:
		v := Var(p.tok.text)
		if err := p.next(); err != nil {
			return nil, err
		}
		return v, nil
	case tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q: %v", p.tok.text, err)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return Const{V: value.Int(n)}, nil
	case tokString:
		s := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		return Const{V: value.String(s)}, nil
	case tokIdent:
		name, line, col := p.tok.text, p.tok.line, p.tok.col
		if err := p.next(); err != nil {
			return nil, err
		}
		switch name {
		case "true":
			return Const{V: value.True}, nil
		case "false":
			return Const{V: value.False}, nil
		}
		if p.tok.kind != tokLParen {
			return Const{V: value.String(name)}, nil
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		app := Apply{Fn: name}
		for {
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			app.Args = append(app.Args, t)
			if p.tok.kind == tokComma {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return app, checkApply(app, line, col)
	default:
		return nil, p.errf("expected a term, got %s %q", p.tok.kind, p.tok.text)
	}
}

// checkApply checks a function application against internal/builtin's
// table — the symbol is known and takes that many arguments — and positions
// the error at the symbol.
func checkApply(app Apply, line, col int) error {
	if _, err := builtin.Check(app.Fn, len(app.Args)); err != nil {
		return fmt.Errorf("%d:%d: %v", line, col, err)
	}
	return nil
}

// parseLiteral parses one body literal: `not atom`, an atom, or a comparison
// between terms. The ambiguity between `p(X)` as an atom and as a function
// term is resolved by lookahead: an identifier application followed by a
// comparison operator is a term, otherwise it is an atom.
func (p *parser) parseLiteral() (Literal, error) {
	if p.tok.kind == tokIdent && p.tok.text == "not" {
		if err := p.next(); err != nil {
			return nil, err
		}
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return LitAtom{Neg: true, Atom: a}, nil
	}
	// Lowercase identifier: could be an atom or a term on the left of a
	// comparison. Parse the application generically and decide afterwards.
	if p.tok.kind == tokIdent {
		name := p.tok.text
		line, col := p.tok.line, p.tok.col
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		if op, isCmp := p.cmpOp(); isCmp {
			// It was really a term.
			var l Term
			if len(a.Args) == 0 {
				switch name {
				case "true":
					l = Const{V: value.True}
				case "false":
					l = Const{V: value.False}
				default:
					l = Const{V: value.String(name)}
				}
			} else {
				app := Apply{Fn: name, Args: a.Args}
				if err := checkApply(app, line, col); err != nil {
					return nil, err
				}
				l = app
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			return LitCmp{Op: op, L: l, R: r}, nil
		}
		return LitAtom{Atom: a}, nil
	}
	// Otherwise the literal must be a comparison whose left side is a
	// variable or constant term.
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	op, isCmp := p.cmpOp()
	if !isCmp {
		return nil, p.errf("expected comparison operator after term %s", l)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	r, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return LitCmp{Op: op, L: l, R: r}, nil
}

// cmpOp returns the comparison the current token spells, if it is one: the
// comparison tokens are the last kinds.
func (p *parser) cmpOp() (builtin.Cmp, bool) {
	if p.tok.kind < tokEq {
		return 0, false
	}
	return builtin.CmpOf(p.tok.text)
}
