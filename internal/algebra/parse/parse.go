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
// constants. The tokens come from internal/lex, which the datalog parser
// reads too; the grammar and its errors are this package's own.
package parse

import (
	"fmt"
	"strconv"
	"strings"

	"algrec/internal/algebra"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/lex"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// Script is a parsed algebra= script.
type Script struct {
	DB algebra.DB
	// Rows holds the relations instead of DB in a script ParseScriptRows
	// read.
	Rows    map[string]Rows
	Program *core.Program
	Queries []Query
}

// Query is one `query expr;` statement.
type Query struct {
	Expr algebra.Expr
	Src  string
}

// ParseScript parses a full script.
func ParseScript(src string) (*Script, error) { return parseScript(src, nil) }

// ParseScriptRows parses a full script as ParseScript does, accepting and
// rejecting the same scripts with the same errors, but reads each rel
// statement's literal straight into Script.Rows, as ID rows of in, and
// leaves Script.DB empty. No tuple value is built for a row, and none is
// interned; only the scalars are.
func ParseScriptRows(src string, in *intern.Interner) (*Script, error) { return parseScript(src, in) }

// parseScript parses a script, into Script.Rows when in is not nil.
func parseScript(src string, in *intern.Interner) (*Script, error) {
	p := &parser{lx: lex.New(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	out := &Script{DB: algebra.DB{}, Program: &core.Program{}}
	if in != nil {
		out.Rows = map[string]Rows{}
	}
	for p.tok.Kind != lex.EOF {
		kw, err := p.expect(lex.Ident)
		if err != nil {
			return nil, err
		}
		switch kw.Text {
		case "rel":
			name, err := p.expect(lex.Ident)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lex.Eq); err != nil {
				return nil, err
			}
			if p.tok.Kind != lex.LBrace { // no other literal is a set
				if _, err := p.parseValue(); err != nil {
					return nil, err
				}
				return nil, p.tok.Errorf("relation %s must be bound to a set literal", name.Text)
			}
			var (
				set  value.Value
				rows Rows
			)
			if in == nil {
				set, err = p.parseValue()
			} else {
				rows, err = p.relRows(in)
			}
			if err != nil {
				return nil, err
			}
			_, dup := out.DB[name.Text]
			if _, again := out.Rows[name.Text]; dup || again {
				return nil, p.tok.Errorf("relation %s defined twice", name.Text)
			}
			if in == nil {
				out.DB[strings.Clone(name.Text)] = set.(value.Set)
			} else {
				out.Rows[strings.Clone(name.Text)] = rows
			}
			if _, err := p.expect(lex.Semi); err != nil {
				return nil, err
			}
		case "def":
			name, err := p.expect(lex.Ident)
			if err != nil {
				return nil, err
			}
			d := core.Def{Name: strings.Clone(name.Text)}
			if p.tok.Kind == lex.LParen {
				if err := p.next(); err != nil {
					return nil, err
				}
				for {
					param, err := p.expect(lex.Ident)
					if err != nil {
						return nil, err
					}
					d.Params = append(d.Params, strings.Clone(param.Text))
					if p.tok.Kind == lex.Comma {
						if err := p.next(); err != nil {
							return nil, err
						}
						continue
					}
					break
				}
				if _, err := p.expect(lex.RParen); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(lex.Eq); err != nil {
				return nil, err
			}
			body, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Body = body
			out.Program.Defs = append(out.Program.Defs, d)
			if _, err := p.expect(lex.Semi); err != nil {
				return nil, err
			}
		case "query":
			start := p.tok
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out.Queries = append(out.Queries, Query{Expr: e, Src: fmt.Sprintf("query at %d:%d", start.Line, start.Col)})
			if _, err := p.expect(lex.Semi); err != nil {
				return nil, err
			}
		default:
			return nil, kw.Errorf("expected 'rel', 'def' or 'query', got %q", kw.Text)
		}
	}
	if err := out.Program.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseExpr parses a single set expression.
func ParseExpr(src string) (algebra.Expr, error) {
	p := &parser{lx: lex.New(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != lex.EOF {
		return nil, p.tok.Errorf("unexpected trailing input %q", p.tok.Text)
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

type parser struct {
	lx  *lex.Lexer
	tok lex.Token
	// element variables currently in scope (lambda binders)
	scope []string
}

func (p *parser) next() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k lex.Kind) (lex.Token, error) {
	if p.tok.Kind != k {
		return lex.Token{}, p.tok.Errorf("unexpected token %q", p.tok.Text)
	}
	t := p.tok
	if err := p.next(); err != nil {
		return lex.Token{}, err
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
	switch p.tok.Kind {
	case lex.LBrace:
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return algebra.Lit{Set: v.(value.Set)}, nil
	case lex.Ident:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if name == "empty" {
			return algebra.EmptyLit, nil
		}
		if p.tok.Kind != lex.LParen {
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
			if _, err := p.expect(lex.Comma); err != nil {
				return nil, err
			}
			r, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lex.RParen); err != nil {
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
			if _, err := p.expect(lex.Comma); err != nil {
				return nil, err
			}
			v, body, err := p.parseLambda()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lex.RParen); err != nil {
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
			if _, err := p.expect(lex.RParen); err != nil {
				return nil, err
			}
			return algebra.Flip{E: inner}, nil
		case "ifp":
			v, err := p.expect(lex.Ident)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lex.Comma); err != nil {
				return nil, err
			}
			body, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lex.RParen); err != nil {
				return nil, err
			}
			return algebra.IFP{Var: strings.Clone(v.Text), Body: body}, nil
		default:
			call := algebra.Call{Name: strings.Clone(name)}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.tok.Kind == lex.Comma {
					if err := p.next(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
			if _, err := p.expect(lex.RParen); err != nil {
				return nil, err
			}
			return call, nil
		}
	default:
		return nil, p.tok.Errorf("expected a set expression, got %q", p.tok.Text)
	}
}

// parseLambda parses \x -> fexpr.
func (p *parser) parseLambda() (string, algebra.FExpr, error) {
	if _, err := p.expect(lex.Backslash); err != nil {
		return "", nil, err
	}
	v, err := p.expect(lex.Ident)
	if err != nil {
		return "", nil, err
	}
	if _, err := p.expect(lex.Arrow); err != nil {
		return "", nil, err
	}
	name := strings.Clone(v.Text)
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
	for p.tok.Kind == lex.Ident && p.tok.Text == "or" {
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
	for p.tok.Kind == lex.Ident && p.tok.Text == "and" {
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
	if p.tok.Kind == lex.Ident && p.tok.Text == "not" {
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
	if p.tok.Kind == lex.Ident && p.tok.Text == "in" {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseFAdd()
		if err != nil {
			return nil, err
		}
		return algebra.FMem{Elem: l, Set: r}, nil
	}
	if !p.tok.Kind.IsCmp() {
		return l, nil
	}
	op, _ := builtin.CmpOf(p.tok.Text)
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
	for p.tok.Kind == lex.Plus || p.tok.Kind == lex.Minus {
		op, _ := builtin.ArithOf(p.tok.Text)
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
	for p.tok.Kind == lex.Star || (p.tok.Kind == lex.Ident && p.tok.Text == "mod") {
		op, _ := builtin.ArithOf(p.tok.Text)
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
	for p.tok.Kind == lex.Dot {
		if err := p.next(); err != nil {
			return nil, err
		}
		idx, err := p.expect(lex.Int)
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(idx.Text)
		if err != nil || n < 1 {
			return nil, p.tok.Errorf("bad projection index %q", idx.Text)
		}
		e = algebra.FField{Of: e, Idx: n}
	}
	return e, nil
}

func (p *parser) parseFPrimary() (algebra.FExpr, error) {
	switch p.tok.Kind {
	case lex.Int:
		n, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.tok.Errorf("bad integer %q", p.tok.Text)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return algebra.FConst{V: value.Int(n)}, nil
	case lex.String:
		s := strings.Clone(p.tok.Text)
		if err := p.next(); err != nil {
			return nil, err
		}
		return algebra.FConst{V: value.String(s)}, nil
	case lex.LBrace:
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return algebra.FConst{V: v}, nil
	case lex.Ident:
		name := p.tok.Text
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
	case lex.LParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == lex.RParen { // () is the empty tuple
			if err := p.next(); err != nil {
				return nil, err
			}
			return algebra.FTuple{}, nil
		}
		first, err := p.parseFOr()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind == lex.RParen {
			if err := p.next(); err != nil {
				return nil, err
			}
			return first, nil // grouping
		}
		elems := []algebra.FExpr{first}
		for p.tok.Kind == lex.Comma {
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.tok.Kind == lex.RParen {
				break // trailing comma: explicit tuple, e.g. the 1-tuple (e,)
			}
			e, err := p.parseFOr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		if _, err := p.expect(lex.RParen); err != nil {
			return nil, err
		}
		return algebra.FTuple{Elems: elems}, nil
	default:
		return nil, p.tok.Errorf("expected an element expression, got %q", p.tok.Text)
	}
}

// parseValue parses a ground value literal: int, symbol, string, boolean,
// tuple (v1, v2, ...), or set {v1, ..., vn}.
func (p *parser) parseValue() (value.Value, error) { return parseLiteral(p, values{}) }

// A literal is what parseLiteral reads a value literal into: the value
// (values), or the ID an interner gives it (ids), which no scalar is boxed
// for. The grammar, and so every error, is parseLiteral's alone.
type literal[T any] interface {
	integer(n int64) T
	str(s string) T // s is the token's text: a copy kept must be cloned
	boolean(b bool) T
	tuple(elems []T) T // elems is the caller's: a copy kept must be made
	set(elems []T) T   // elems is handed over
}

// parseLiteral parses a ground value literal into l.
func parseLiteral[T any, L literal[T]](p *parser, l L) (T, error) {
	var zero T
	switch p.tok.Kind {
	case lex.Int:
		n, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return zero, p.tok.Errorf("bad integer %q", p.tok.Text)
		}
		if err := p.next(); err != nil {
			return zero, err
		}
		return l.integer(n), nil
	case lex.String:
		s := p.tok.Text
		if err := p.next(); err != nil {
			return zero, err
		}
		return l.str(s), nil
	case lex.Ident:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return zero, err
		}
		switch name {
		case "true":
			return l.boolean(true), nil
		case "false":
			return l.boolean(false), nil
		default:
			return l.str(name), nil
		}
	case lex.LParen:
		var buf [8]T
		elems, err := parseTuple(p, l, buf[:0])
		if err != nil {
			return zero, err
		}
		return l.tuple(elems), nil
	case lex.LBrace:
		if err := p.next(); err != nil {
			return zero, err
		}
		var elems []T
		err := p.elems(lex.RBrace, func() error {
			v, err := parseLiteral(p, l)
			elems = append(elems, v)
			return err
		})
		if err != nil {
			return zero, err
		}
		return l.set(elems), nil
	default:
		return zero, p.tok.Errorf("expected a value, got %q", p.tok.Text)
	}
}

// parseTuple parses a tuple literal's elements into l, appending them to
// buf.
func parseTuple[T any, L literal[T]](p *parser, l L, buf []T) ([]T, error) {
	if err := p.next(); err != nil {
		return buf, err
	}
	err := p.elems(lex.RParen, func() error {
		v, err := parseLiteral(p, l)
		buf = append(buf, v)
		return err
	})
	return buf, err
}

// elems reads the comma-separated elements of a tuple or set literal, whose
// opening token is read, through its closing token close, calling each once
// per element. A tuple may end in a comma, as the 1-tuple (v,) does; a set
// may not.
func (p *parser) elems(close lex.Kind, each func() error) error {
	if p.tok.Kind != close {
		for {
			if err := each(); err != nil {
				return err
			}
			if p.tok.Kind != lex.Comma {
				break
			}
			if err := p.next(); err != nil {
				return err
			}
			if close == lex.RParen && p.tok.Kind == close {
				break
			}
		}
	}
	_, err := p.expect(close)
	return err
}

// values reads literals into value.Values.
type values struct{}

func (values) integer(n int64) value.Value           { return value.Int(n) }
func (values) str(s string) value.Value              { return value.String(strings.Clone(s)) }
func (values) boolean(b bool) value.Value            { return value.Bool(b) }
func (values) tuple(elems []value.Value) value.Value { return value.NewTuple(elems...) }
func (values) set(elems []value.Value) value.Value   { return value.SetOf(elems) }
