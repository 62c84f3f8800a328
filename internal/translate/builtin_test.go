package translate

import (
	"math"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/value"
)

// toFExpr maps a ground datalog term to the algebra node the
// deduction-to-algebra translation gives it.
func toFExpr(t datalog.Term) (algebra.FExpr, error) {
	a, ok := t.(datalog.Apply)
	if !ok {
		return algebra.FConst{V: t.(datalog.Const).V}, nil
	}
	args := make([]algebra.FExpr, len(a.Args))
	for i, x := range a.Args {
		f, err := toFExpr(x)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	return applyFExpr(a.Fn, args, a)
}

// TestBuiltinsAgree evaluates every entry of internal/builtin's table through
// both front-ends on the same arguments: EvalTerm on the datalog term, EvalF
// on the algebra node the translation maps it to, and EvalTerm again on that
// node's translation back to a term. All three give the same value, or all
// three an error. set and ins have no algebra form: the translation refuses
// them.
func TestBuiltinsAgree(t *testing.T) {
	c, sym := datalog.CInt, datalog.CSym
	tr, fa := datalog.C(value.True), datalog.C(value.False)
	app := func(fn string, args ...datalog.Term) datalog.Apply { return datalog.Apply{Fn: fn, Args: args} }
	pair := app("tup", c(1), c(2))
	set := datalog.C(value.NewSet(value.Int(1), value.Int(2)))
	bad := app("plus", c(1), tr) // an ill-kinded argument: an error
	cases := []datalog.Apply{
		app("succ", c(1)), app("succ", c(math.MaxInt64)), app("succ", tr),
		app("pred", c(0)), app("pred", c(math.MinInt64)), app("pred", sym("a")),
		app("plus", c(2), c(3)), app("plus", c(math.MaxInt64), c(1)), app("plus", c(1), tr),
		app("minus", c(2), c(3)), app("minus", c(math.MinInt64), c(1)), app("minus", sym("a"), c(1)),
		app("times", c(6), c(-7)), app("times", c(math.MaxInt64), c(2)), app("times", c(3), set),
		app("mod", c(7), c(3)), app("mod", c(7), c(0)), app("mod", c(7), c(-2)), app("mod", c(-7), c(2)),
		app("mod", c(math.MinInt64), c(-1)), app("mod", pair, c(2)),
		app("eq", c(1), c(1)), app("eq", pair, app("tup", c(1), c(2))), app("ne", tr, c(1)),
		app("lt", tr, c(1)), app("lt", c(2), c(1)), app("le", pair, pair), app("gt", set, c(1)),
		app("ge", sym("a"), sym("b")), app("eq", bad, c(1)),
		app("tup"), app("tup", c(1)), pair, app("tup", bad, c(1)),
		app("fst", pair), app("fst", c(1)), app("snd", pair), app("snd", app("tup", c(1))),
		app("field", pair, c(2)), app("field", pair, c(3)), app("field", pair, c(0)), app("field", c(1), c(1)),
		app("band", tr, tr), app("band", tr, fa), app("band", fa, bad), app("band", c(1), tr),
		app("band", tr, c(1)), app("band", tr, bad),
		app("bor", fa, fa), app("bor", fa, tr), app("bor", tr, bad), app("bor", c(0), fa), app("bor", fa, bad),
		app("bnot", fa), app("bnot", tr), app("bnot", c(1)),
		app("ismem", c(1), set), app("ismem", c(3), set), app("ismem", c(1), c(2)),
		app("set", c(2), c(1), c(2)), app("ins", c(3), set), app("ins", c(1), c(2)),
	}
	seen := map[string]bool{}
	for _, tm := range cases {
		seen[tm.Fn] = true
		want, wantErr := datalog.EvalTerm(tm, nil)
		f, err := toFExpr(tm)
		if tm.Fn == "set" || tm.Fn == "ins" {
			if err == nil {
				t.Errorf("%s translated to %s; it has no algebra form", tm, f)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s does not translate: %v", tm, err)
			continue
		}
		back, err := fexprToTerm(f, nil)
		if err != nil {
			t.Errorf("%s does not translate back: %v", f, err)
			continue
		}
		got, gotErr := algebra.EvalF(f, nil)
		again, againErr := datalog.EvalTerm(back, nil)
		for _, r := range []struct {
			path string
			v    value.Value
			err  error
		}{{"EvalF(" + f.String() + ")", got, gotErr}, {"EvalTerm(" + back.String() + ")", again, againErr}} {
			switch {
			case (r.err != nil) != (wantErr != nil):
				t.Errorf("%s: %v, %v; EvalTerm(%s): %v, %v", r.path, r.v, r.err, tm, want, wantErr)
			case wantErr == nil && !value.Equal(r.v, want):
				t.Errorf("%s = %v; EvalTerm(%s) = %v", r.path, r.v, tm, want)
			}
		}
	}
	for _, name := range builtin.Names() {
		if !seen[name] {
			t.Errorf("no case evaluates %s", name)
		}
	}
}

// TestConnectivesTranslate: an and/or whose first argument decides it leaves
// the second unevaluated in the algebra, so its deductive translation must
// too — here the second is ill-kinded, and evaluating it fails the whole
// datalog evaluation.
func TestConnectivesTranslate(t *testing.T) {
	for _, src := range []string{
		`rel e = {(1, 2), (3, 4)}; def s = select(e, \p -> p.1 = 0 and p.2 + true = 3);`,
		`rel e = {(1, 2), (3, 4)}; def s = select(e, \p -> p.1 > 0 or p.2 + true = 3);`,
	} {
		script, err := parse.ParseScript(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.EvalValid(script.Program, script.DB, algebra.Budget{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		prog, err := CoreToDatalog(script.Program)
		if err != nil {
			t.Fatal(err)
		}
		prog.AddFacts(DBFacts(script.DB)...)
		in := evalValidDatalog(t, prog)
		if got, want := TrueSet(in, "s"), res.Set("s"); !value.Equal(got, want) {
			t.Errorf("%s: datalog %v, algebra %v", src, got, want)
		}
	}
}
