// Package parse implements a concrete syntax for algebra= scripts: database
// relations, defining equations, and queries over the operators of
// internal/algebra. A script is a sequence of statements:
//
//	% the WIN game of Example 3
//	rel move = {(a, b), (b, c), (b, d)};
//	def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);
//	query win;
//
//	def intersect(x, y) = diff(x, diff(x, y));   % Example 3's ∩
//	def evens = select(union({0}, map(evens, \x -> x + 2)), \x -> x < 100);
//
// Set expressions are the operators union, diff, product, select, map, ifp
// plus relation/definition names, calls f(e1, ..., en), and set literals.
// Element expressions (after a \x -> binder) support tuple projection x.1,
// arithmetic + - * mod, comparisons = != < <= > >=, boolean and/or/not,
// membership `in` against a set literal, tuple construction (e1, e2), and
// constants.
package parse

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"algrec/internal/algebra"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/value"
)

// Script is a parsed algebra= script.
type Script struct {
	DB      algebra.DB
	Program *core.Program
	Queries []Query
}

// Query is one `query expr;` statement.
type Query struct {
	Expr algebra.Expr
	Src  string
}

// ParseScript parses a full script.
func ParseScript(src string) (*Script, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	out := &Script{DB: algebra.DB{}, Program: &core.Program{}}
	for p.tok.kind != tEOF {
		kw, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		switch kw.text {
		case "rel":
			name, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tEq); err != nil {
				return nil, err
			}
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			s, ok := v.(value.Set)
			if !ok {
				return nil, p.errf("relation %s must be bound to a set literal", name.text)
			}
			if _, dup := out.DB[name.text]; dup {
				return nil, p.errf("relation %s defined twice", name.text)
			}
			out.DB[strings.Clone(name.text)] = s
			if _, err := p.expect(tSemi); err != nil {
				return nil, err
			}
		case "def":
			name, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			d := core.Def{Name: strings.Clone(name.text)}
			if p.tok.kind == tLParen {
				if err := p.next(); err != nil {
					return nil, err
				}
				for {
					param, err := p.expect(tIdent)
					if err != nil {
						return nil, err
					}
					d.Params = append(d.Params, strings.Clone(param.text))
					if p.tok.kind == tComma {
						if err := p.next(); err != nil {
							return nil, err
						}
						continue
					}
					break
				}
				if _, err := p.expect(tRParen); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tEq); err != nil {
				return nil, err
			}
			body, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Body = body
			out.Program.Defs = append(out.Program.Defs, d)
			if _, err := p.expect(tSemi); err != nil {
				return nil, err
			}
		case "query":
			start := p.tok
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out.Queries = append(out.Queries, Query{Expr: e, Src: fmt.Sprintf("query at %d:%d", start.line, start.col)})
			if _, err := p.expect(tSemi); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%d:%d: expected 'rel', 'def' or 'query', got %q", kw.line, kw.col, kw.text)
		}
	}
	if err := out.Program.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseExpr parses a single set expression.
func ParseExpr(src string) (algebra.Expr, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, p.errf("unexpected trailing input %q", p.tok.text)
	}
	return e, nil
}

// MustParseScript parses src and panics on error; intended for tests and
// examples.
func MustParseScript(src string) *Script {
	s, err := ParseScript(src)
	if err != nil {
		panic(err)
	}
	return s
}

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tString
	tLParen
	tRParen
	tLBrace
	tRBrace
	tComma
	tSemi
	tEq // tEq … tGe: the comparison operators
	tNe
	tLt
	tLe
	tGt
	tGe
	tPlus
	tMinus
	tStar
	tDot
	tLambda // \
	tArrow  // ->
)

// token is one lexeme. Its text is a substring of the source (a string
// literal's is unquoted), so lexing allocates nothing per token; what a parse
// result keeps of a name or a string it copies first (strings.Clone), so
// that no parsed value pins the whole script.
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

// lex returns the next token. Blanks and comments are the only input that
// spans lines: a token never holds a newline (a string literal with one is
// an error), so its width is its column count.
func (l *lexer) lex() (token, error) {
	l.skipBlanks()
	start, line, col := l.pos, l.line, l.col
	if start == len(l.src) {
		return token{kind: tEOF, line: line, col: col}, nil
	}
	kind, err := l.scan()
	if err != nil {
		return token{}, fmt.Errorf("%d:%d: %s", line, col, err)
	}
	l.col += l.pos - start
	text := l.src[start:l.pos]
	if kind == tString {
		// strconv.Unquote is the exact inverse of the strconv.Quote used
		// when printing string values.
		if text, err = strconv.Unquote(text); err != nil {
			return token{}, fmt.Errorf("%d:%d: bad string literal %s: %v", line, col, l.src[start:l.pos], err)
		}
	}
	return token{kind, text, line, col}, nil
}

// skipBlanks moves past white space and %-comments, counting lines.
func (l *lexer) skipBlanks() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '\n':
			l.pos++
			l.line, l.col = l.line+1, 1
		case ' ', '\t', '\r':
			l.pos++
			l.col++
		case '%':
			n := strings.IndexByte(l.src[l.pos:], '\n')
			if n < 0 {
				n = len(l.src) - l.pos
			}
			l.pos += n
			l.col += n
		default:
			return
		}
	}
}

// scan moves past the token at l.pos and returns its kind.
func (l *lexer) scan() (tokKind, error) {
	b := l.src[l.pos]
	l.pos++
	switch b {
	case '(':
		return tLParen, nil
	case ')':
		return tRParen, nil
	case '{':
		return tLBrace, nil
	case '}':
		return tRBrace, nil
	case ',':
		return tComma, nil
	case ';':
		return tSemi, nil
	case '=':
		return tEq, nil
	case '+':
		return tPlus, nil
	case '*':
		return tStar, nil
	case '.':
		return tDot, nil
	case '\\':
		return tLambda, nil
	case '!':
		if l.skip('=') {
			return tNe, nil
		}
		return 0, errors.New("unexpected '!'")
	case '<':
		if l.skip('=') {
			return tLe, nil
		}
		return tLt, nil
	case '>':
		if l.skip('=') {
			return tGe, nil
		}
		return tGt, nil
	case '-':
		if l.skip('>') {
			return tArrow, nil
		}
		if l.digits() > 0 {
			return tInt, nil
		}
		return tMinus, nil
	case '"':
		for ; l.pos < len(l.src) && l.src[l.pos] != '\n'; l.pos++ {
			switch l.src[l.pos] {
			case '\\':
				if l.pos++; l.pos == len(l.src) {
					return 0, errors.New("unterminated escape")
				}
			case '"':
				l.pos++
				return tString, nil
			}
		}
		return 0, errors.New("unterminated string")
	}
	switch {
	case b >= '0' && b <= '9':
		l.digits()
		return tInt, nil
	case isIdentByte(b, true):
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos], false) {
			l.pos++
		}
		return tIdent, nil
	}
	return 0, fmt.Errorf("unexpected character %q", string(b))
}

// skip moves past the next byte if it is b, and reports whether it was.
func (l *lexer) skip(b byte) bool {
	if l.pos < len(l.src) && l.src[l.pos] == b {
		l.pos++
		return true
	}
	return false
}

// digits moves past a run of decimal digits and returns its length.
func (l *lexer) digits() int {
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

type parser struct {
	lex *lexer
	tok token
	// element variables currently in scope (lambda binders)
	scope []string
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
		return token{}, p.errf("unexpected token %q", p.tok.text)
	}
	t := p.tok
	if err := p.next(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) inScope(name string) bool {
	for _, s := range p.scope {
		if s == name {
			return true
		}
	}
	return false
}

// parseExpr parses a set expression.
func (p *parser) parseExpr() (algebra.Expr, error) {
	switch p.tok.kind {
	case tLBrace:
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return algebra.Lit{Set: v.(value.Set)}, nil
	case tIdent:
		name := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		if name == "empty" {
			return algebra.EmptyLit, nil
		}
		if p.tok.kind != tLParen {
			return algebra.Rel{Name: strings.Clone(name)}, nil
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		switch name {
		case "union", "diff", "product":
			l, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tComma); err != nil {
				return nil, err
			}
			r, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			switch name {
			case "union":
				return algebra.Union{L: l, R: r}, nil
			case "diff":
				return algebra.Diff{L: l, R: r}, nil
			default:
				return algebra.Product{L: l, R: r}, nil
			}
		case "select", "map":
			of, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tComma); err != nil {
				return nil, err
			}
			v, body, err := p.parseLambda()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			if name == "select" {
				return algebra.Select{Of: of, Var: v, Test: body}, nil
			}
			return algebra.Map{Of: of, Var: v, Out: body}, nil
		case "flip":
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			return algebra.Flip{E: inner}, nil
		case "ifp":
			v, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tComma); err != nil {
				return nil, err
			}
			body, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			return algebra.IFP{Var: strings.Clone(v.text), Body: body}, nil
		default:
			call := algebra.Call{Name: strings.Clone(name)}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.tok.kind == tComma {
					if err := p.next(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
	default:
		return nil, p.errf("expected a set expression, got %q", p.tok.text)
	}
}

// parseLambda parses \x -> fexpr.
func (p *parser) parseLambda() (string, algebra.FExpr, error) {
	if _, err := p.expect(tLambda); err != nil {
		return "", nil, err
	}
	v, err := p.expect(tIdent)
	if err != nil {
		return "", nil, err
	}
	if _, err := p.expect(tArrow); err != nil {
		return "", nil, err
	}
	name := strings.Clone(v.text)
	p.scope = append(p.scope, name)
	body, err := p.parseFOr()
	p.scope = p.scope[:len(p.scope)-1]
	if err != nil {
		return "", nil, err
	}
	return name, body, nil
}

// FExpr grammar, loosest first: or > and > not > in > cmp > additive >
// multiplicative > postfix projection > primary.
func (p *parser) parseFOr() (algebra.FExpr, error) {
	l, err := p.parseFAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tIdent && p.tok.text == "or" {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseFAnd()
		if err != nil {
			return nil, err
		}
		l = algebra.FOr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseFAnd() (algebra.FExpr, error) {
	l, err := p.parseFNot()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tIdent && p.tok.text == "and" {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseFNot()
		if err != nil {
			return nil, err
		}
		l = algebra.FAnd{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseFNot() (algebra.FExpr, error) {
	if p.tok.kind == tIdent && p.tok.text == "not" {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseFNot()
		if err != nil {
			return nil, err
		}
		return algebra.FNot{E: e}, nil
	}
	return p.parseFCmp()
}

func (p *parser) parseFCmp() (algebra.FExpr, error) {
	l, err := p.parseFAdd()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tIdent && p.tok.text == "in" {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseFAdd()
		if err != nil {
			return nil, err
		}
		return algebra.FMem{Elem: l, Set: r}, nil
	}
	if p.tok.kind < tEq || p.tok.kind > tGe {
		return l, nil
	}
	op, _ := builtin.CmpOf(p.tok.text)
	if err := p.next(); err != nil {
		return nil, err
	}
	r, err := p.parseFAdd()
	if err != nil {
		return nil, err
	}
	return algebra.FCmp{Op: op, L: l, R: r}, nil
}

func (p *parser) parseFAdd() (algebra.FExpr, error) {
	l, err := p.parseFMul()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tPlus || p.tok.kind == tMinus {
		op, _ := builtin.ArithOf(p.tok.text)
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseFMul()
		if err != nil {
			return nil, err
		}
		l = algebra.FArith{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseFMul() (algebra.FExpr, error) {
	l, err := p.parseFPostfix()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tStar || (p.tok.kind == tIdent && p.tok.text == "mod") {
		op, _ := builtin.ArithOf(p.tok.text)
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseFPostfix()
		if err != nil {
			return nil, err
		}
		l = algebra.FArith{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseFPostfix() (algebra.FExpr, error) {
	e, err := p.parseFPrimary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tDot {
		if err := p.next(); err != nil {
			return nil, err
		}
		idx, err := p.expect(tInt)
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(idx.text)
		if err != nil || n < 1 {
			return nil, p.errf("bad projection index %q", idx.text)
		}
		e = algebra.FField{Of: e, Idx: n}
	}
	return e, nil
}

func (p *parser) parseFPrimary() (algebra.FExpr, error) {
	switch p.tok.kind {
	case tInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.text)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return algebra.FConst{V: value.Int(n)}, nil
	case tString:
		s := strings.Clone(p.tok.text)
		if err := p.next(); err != nil {
			return nil, err
		}
		return algebra.FConst{V: value.String(s)}, nil
	case tLBrace:
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return algebra.FConst{V: v}, nil
	case tIdent:
		name := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		switch name {
		case "true":
			return algebra.FConst{V: value.True}, nil
		case "false":
			return algebra.FConst{V: value.False}, nil
		}
		if p.inScope(name) {
			return algebra.FVar{Name: strings.Clone(name)}, nil
		}
		return algebra.FConst{V: value.String(strings.Clone(name))}, nil
	case tLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.kind == tRParen { // () is the empty tuple
			if err := p.next(); err != nil {
				return nil, err
			}
			return algebra.FTuple{}, nil
		}
		first, err := p.parseFOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind == tRParen {
			if err := p.next(); err != nil {
				return nil, err
			}
			return first, nil // grouping
		}
		elems := []algebra.FExpr{first}
		for p.tok.kind == tComma {
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.tok.kind == tRParen {
				break // trailing comma: explicit tuple, e.g. the 1-tuple (e,)
			}
			e, err := p.parseFOr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return algebra.FTuple{Elems: elems}, nil
	default:
		return nil, p.errf("expected an element expression, got %q", p.tok.text)
	}
}

// parseValue parses a ground value literal: int, symbol, string, boolean,
// tuple (v1, v2, ...), or set {v1, ..., vn}.
func (p *parser) parseValue() (value.Value, error) {
	switch p.tok.kind {
	case tInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.text)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return value.Int(n), nil
	case tString:
		s := strings.Clone(p.tok.text)
		if err := p.next(); err != nil {
			return nil, err
		}
		return value.String(s), nil
	case tIdent:
		name := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		switch name {
		case "true":
			return value.True, nil
		case "false":
			return value.False, nil
		default:
			return value.String(strings.Clone(name)), nil
		}
	case tLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		var buf [8]value.Value
		elems := buf[:0]
		for p.tok.kind != tRParen {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
			if p.tok.kind == tComma {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return value.NewTuple(elems...), nil
	case tLBrace:
		if err := p.next(); err != nil {
			return nil, err
		}
		var b value.SetBuilder
		if p.tok.kind != tRBrace {
			for {
				v, err := p.parseValue()
				if err != nil {
					return nil, err
				}
				b.Add(v)
				if p.tok.kind == tComma {
					if err := p.next(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
		}
		if _, err := p.expect(tRBrace); err != nil {
			return nil, err
		}
		return b.Set(), nil
	default:
		return nil, p.errf("expected a value, got %q", p.tok.text)
	}
}
