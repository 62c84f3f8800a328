package datalog

import (
	"fmt"
	"strconv"
	"strings"

	"algrec/internal/builtin"
	"algrec/internal/lex"
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
	p := &parser{lx: lex.New(src), preds: map[string]string{}}
	if err := p.next(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.tok.Kind != lex.EOF {
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

type parser struct {
	lx    *lex.Lexer
	tok   lex.Token
	preds map[string]string // each predicate name, cloned once per parse
}

// next reads the next token. The algebra's operators, which no program
// has, are refused where they start: a '-' that no digit follows with
// "expected digit after '-'", the rest as unexpected characters.
func (p *parser) next() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	switch t.Kind {
	case lex.Minus, lex.Arrow:
		return t.Errorf("expected digit after '-'")
	case lex.Semi, lex.Plus, lex.Star, lex.Backslash:
		return t.Errorf("unexpected character %q", t.Text)
	}
	p.tok = t
	return nil
}

// variable reports whether the current token is a variable: an identifier
// with a capital first letter.
func (p *parser) variable() bool {
	return p.tok.Kind == lex.Ident && p.tok.Text[0] >= 'A' && p.tok.Text[0] <= 'Z'
}

// got names the current token for an error: its kind and its text.
func (p *parser) got() string {
	if p.variable() {
		return fmt.Sprintf("variable %q", p.tok.Text)
	}
	return fmt.Sprintf("%s %q", p.tok.Kind, p.tok.Text)
}

// expect moves past a token of kind k, where an identifier must not be a
// variable.
func (p *parser) expect(k lex.Kind) (lex.Token, error) {
	if p.tok.Kind != k || p.variable() {
		return lex.Token{}, p.tok.Errorf("expected %s, got %s", k, p.got())
	}
	t := p.tok
	if err := p.next(); err != nil {
		return lex.Token{}, err
	}
	return t, nil
}

func (p *parser) parseRule() (Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return Rule{}, err
	}
	r := Rule{Head: head}
	switch p.tok.Kind {
	case lex.Dot:
		if err := p.next(); err != nil {
			return Rule{}, err
		}
		return r, nil
	case lex.Implies:
		if err := p.next(); err != nil {
			return Rule{}, err
		}
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return Rule{}, err
			}
			r.Body = append(r.Body, lit)
			if p.tok.Kind == lex.Comma {
				if err := p.next(); err != nil {
					return Rule{}, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(lex.Dot); err != nil {
			return Rule{}, err
		}
		return r, nil
	default:
		return Rule{}, p.tok.Errorf("expected '.' or ':-' after rule head, got %s", p.got())
	}
}

// parseAtom parses pred or pred(t1, ..., tn) where pred is a lowercase
// identifier.
func (p *parser) parseAtom() (Atom, error) {
	name, err := p.expect(lex.Ident)
	if err != nil {
		return Atom{}, err
	}
	pred, ok := p.preds[name.Text]
	if !ok {
		pred = strings.Clone(name.Text)
		p.preds[pred] = pred
	}
	a := Atom{Pred: pred}
	if p.tok.Kind == lex.LParen {
		a.Args, err = p.parseTerms(lex.RParen, false)
	}
	return a, err
}

// parseTerms moves past the opening bracket and parses a comma-separated
// list of terms up to and past close. The list of a tuple or set literal may
// be empty or end in a comma; an argument list may not.
func (p *parser) parseTerms(close lex.Kind, literal bool) ([]Term, error) {
	if err := p.next(); err != nil {
		return nil, err
	}
	var buf [8]Term
	ts := buf[:0]
	for !literal || p.tok.Kind != close {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
		if p.tok.Kind != lex.Comma {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(close); err != nil {
		return nil, err
	}
	return append([]Term(nil), ts...), nil // one allocation, of the list's length
}

func (p *parser) parseTerm() (Term, error) {
	if p.variable() {
		v := Var(strings.Clone(p.tok.Text))
		if err := p.next(); err != nil {
			return nil, err
		}
		return v, nil
	}
	switch p.tok.Kind {
	case lex.LParen:
		// Tuple literal (t1, ..., tn) — sugar for tup(t1, ..., tn), needed
		// so printed tuple constants re-parse.
		args, err := p.parseTerms(lex.RParen, true)
		if err != nil {
			return nil, err
		}
		return Apply{Fn: "tup", Args: args}, nil
	case lex.LBrace:
		// Set literal {t1, ..., tn} — sugar for set(t1, ..., tn).
		args, err := p.parseTerms(lex.RBrace, true)
		if err != nil {
			return nil, err
		}
		return Apply{Fn: "set", Args: args}, nil
	case lex.Int:
		n, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.tok.Errorf("bad integer %q: %v", p.tok.Text, err)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return Const{V: value.Int(n)}, nil
	case lex.String:
		s := strings.Clone(p.tok.Text)
		if err := p.next(); err != nil {
			return nil, err
		}
		return Const{V: value.String(s)}, nil
	case lex.Ident:
		name, pos := strings.Clone(p.tok.Text), p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		switch name {
		case "true":
			return Const{V: value.True}, nil
		case "false":
			return Const{V: value.False}, nil
		}
		if p.tok.Kind != lex.LParen {
			return Const{V: value.String(name)}, nil
		}
		args, err := p.parseTerms(lex.RParen, false)
		if err != nil {
			return nil, err
		}
		app := Apply{Fn: name, Args: args}
		return app, checkApply(app, pos)
	default:
		return nil, p.tok.Errorf("expected a term, got %s", p.got())
	}
}

// checkApply checks a function application against internal/builtin's
// table — the symbol is known and takes that many arguments — and positions
// the error at the symbol.
func checkApply(app Apply, pos lex.Pos) error {
	if _, err := builtin.Check(app.Fn, len(app.Args)); err != nil {
		return pos.Errorf("%v", err)
	}
	return nil
}

// parseLiteral parses one body literal: `not atom`, an atom, or a comparison
// between terms. The ambiguity between `p(X)` as an atom and as a function
// term is resolved by lookahead: an identifier application followed by a
// comparison operator is a term, otherwise it is an atom.
func (p *parser) parseLiteral() (Literal, error) {
	if p.tok.Kind == lex.Ident && p.tok.Text == "not" {
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
	if p.tok.Kind == lex.Ident && !p.variable() {
		pos := p.tok.Pos
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		if op, isCmp := p.cmpOp(); isCmp {
			// It was really a term.
			var l Term
			if len(a.Args) == 0 {
				switch a.Pred {
				case "true":
					l = Const{V: value.True}
				case "false":
					l = Const{V: value.False}
				default:
					l = Const{V: value.String(a.Pred)}
				}
			} else {
				app := Apply{Fn: a.Pred, Args: a.Args}
				if err := checkApply(app, pos); err != nil {
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
		return nil, p.tok.Errorf("expected comparison operator after term %s", l)
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

// cmpOp returns the comparison the current token spells, if it is one.
func (p *parser) cmpOp() (builtin.Cmp, bool) {
	if !p.tok.Kind.IsCmp() {
		return 0, false
	}
	return builtin.CmpOf(p.tok.Text)
}
