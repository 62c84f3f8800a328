package query

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/datalog/ground"
	"algrec/internal/semantics"
)

const (
	tcScript = `rel edge = {(a, b), (b, c), (c, d)};
def tc = union(edge, map(select(product(tc, edge), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2)));
query tc;`
	winCycle = `rel move = {(a, b), (b, a)};
def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);`
	winDatalog = `move(a, a). move(a, b). move(b, c).
win(X) :- move(X, Y), not win(Y).`
	tcClosure = "{(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)}"
)

func mustCompile(t *testing.T, lang Language, sem Semantics, src string) *Plan {
	t.Helper()
	p, err := Compile(lang, sem, src)
	if err != nil {
		t.Fatalf("Compile(%s, %s): %v", lang, sem, err)
	}
	return p
}

func mustExecute(t *testing.T, p *Plan, db algebra.DB, opts Options) *Outcome {
	t.Helper()
	out, err := Execute(p, db, opts)
	if err != nil {
		t.Fatalf("Execute(%s, %s): %v", p.Language, p.Semantics, err)
	}
	return out
}

func TestParseLanguageAndSemantics(t *testing.T) {
	for name, want := range map[string]Language{
		"algebra": LangAlgebra, "ifp": LangIFPAlgebra, "ifp-algebra": LangIFPAlgebra,
		"algebra=": LangAlgebraEq, "algebra-eq": LangAlgebraEq, "core": LangAlgebraEq,
		"datalog": LangDatalog, "dlog": LangDatalog,
	} {
		if got, err := ParseLanguage(name); err != nil || got != want {
			t.Errorf("ParseLanguage(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseLanguage("sql"); err == nil {
		t.Error("ParseLanguage(sql) should fail")
	}
	for name, want := range map[string]Semantics{
		"": SemValid, "valid": SemValid, "wellfounded": SemWellFounded,
		"well-founded": SemWellFounded, "wfs": SemWellFounded, "stable": SemStable,
		"inflationary": SemInflationary, "stratified": SemStratified, "minimal": SemMinimal,
	} {
		if got, err := ParseSemantics(name); err != nil || got != want {
			t.Errorf("ParseSemantics(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseSemantics("vibes"); err == nil {
		t.Error("ParseSemantics(vibes) should fail")
	}
}

func TestCompatibleSemantics(t *testing.T) {
	if got := CompatibleSemantics(LangAlgebraEq); len(got) != 4 {
		t.Fatalf("algebra= supports %v, want 4 semantics", got)
	}
	for _, lang := range []Language{LangAlgebra, LangIFPAlgebra, LangDatalog} {
		if got := CompatibleSemantics(lang); len(got) != 6 {
			t.Fatalf("%s supports %v, want all 6", lang, got)
		}
	}
	if CompatibleSemantics("fortran") != nil {
		t.Fatal("unknown language must support nothing")
	}
	if _, err := Compile(LangAlgebraEq, SemMinimal, winCycle); !errors.Is(err, ErrUnsupportedSemantics) {
		t.Fatalf("algebra= under minimal: %v, want ErrUnsupportedSemantics", err)
	}
}

func TestCompileRejections(t *testing.T) {
	if _, err := Compile(LangAlgebra, SemValid, `ifp(s, union({0}, s))`); err == nil {
		t.Fatal("plain algebra must reject the ifp operator")
	}
	if _, err := Compile(LangIFPAlgebra, SemValid, `ifp(s, union({0}, s))`); err != nil {
		t.Fatalf("ifp-algebra must accept the ifp operator: %v", err)
	}
	if _, err := Compile(LangDatalog, SemStratified, winDatalog); !errors.Is(err, ErrUnsupportedSemantics) {
		t.Fatalf("stratified over unstratifiable program: %v, want ErrUnsupportedSemantics", err)
	}
	if _, err := Compile(LangDatalog, SemValid, "p(a"); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := Compile(LangAlgebraEq, SemValid, "def ("); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := Compile("fortran", SemValid, "x"); err == nil {
		t.Fatal("want unknown-language error")
	}
}

func TestExecuteExpressionLanguages(t *testing.T) {
	db, err := Compile(LangAlgebraEq, SemValid, `rel edge = {(a, b), (b, c), (c, d)};`)
	if err != nil {
		t.Fatal(err)
	}
	edges := db.Script.DB
	p := mustCompile(t, LangAlgebra, SemValid, `diff(edge, {(a, b)})`)
	if out := mustExecute(t, p, edges, Options{}); !out.HasValue || out.Set().String() != "{(b, c), (c, d)}" {
		t.Fatalf("algebra value = %+v", out)
	}
	tc := mustCompile(t, LangIFPAlgebra, SemStable,
		`ifp(s, union(edge, map(select(product(s, edge), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`)
	if out := mustExecute(t, tc, edges, Options{}); out.Set().String() != tcClosure {
		t.Fatalf("ifp closure = %s", out.Set())
	}
	// The plan is database-independent: the same plan over an empty db.
	p2 := mustCompile(t, LangAlgebra, SemValid, `union({1}, {2})`)
	if out := mustExecute(t, p2, nil, Options{}); out.Set().String() != "{1, 2}" {
		t.Fatalf("value = %s", out.Set())
	}
}

func TestExecuteAlgebraEqAllSemantics(t *testing.T) {
	for _, sem := range []Semantics{SemValid, SemInflationary, SemWellFounded} {
		p := mustCompile(t, LangAlgebraEq, sem, tcScript)
		out := mustExecute(t, p, nil, Options{})
		if len(out.Queries) != 1 || out.Queries[0].Set.String() != tcClosure {
			t.Fatalf("%s: queries = %+v", sem, out.Queries)
		}
		if !out.WellDefined {
			t.Fatalf("%s: tc must be well defined", sem)
		}
	}
	p := mustCompile(t, LangAlgebraEq, SemStable, winCycle)
	out := mustExecute(t, p, nil, Options{})
	if len(out.Models) != 2 {
		t.Fatalf("stable readings = %+v, want 2", out.Models)
	}
	var sets []string
	for _, m := range out.Models {
		sets = append(sets, m[0].Set.String())
	}
	if fmt.Sprint(sets) != "[{a} {b}]" && fmt.Sprint(sets) != "[{b} {a}]" {
		t.Fatalf("stable win sets = %v", sets)
	}
	// The cyclic game has no two-valued valid reading: win is undefined.
	pv := mustCompile(t, LangAlgebraEq, SemValid, winCycle)
	ov := mustExecute(t, pv, nil, Options{})
	if ov.WellDefined {
		t.Fatal("cyclic WIN must not be well defined under valid")
	}
	pw := mustCompile(t, LangAlgebraEq, SemWellFounded, winCycle)
	ow := mustExecute(t, pw, nil, Options{})
	if ow.WellDefined || len(ow.Defs) != 1 || ow.Defs[0].Undef.IsEmpty() {
		t.Fatalf("wellfounded cyclic WIN = %+v", ow.Defs)
	}
}

func TestExecuteDatalogAllSemantics(t *testing.T) {
	find := func(m *DatalogModel, pred string) *PredFacts {
		for i := range m.Preds {
			if m.Preds[i].Pred == pred {
				return &m.Preds[i]
			}
		}
		return nil
	}
	for _, tc := range []struct {
		sem        Semantics
		wantTrue   string
		wantUndef  string
		wellDefind bool
	}{
		{SemValid, "[win(b)]", "[win(a)]", false},
		{SemWellFounded, "[win(b)]", "[win(a)]", false},
		{SemInflationary, "[win(a) win(b)]", "[]", true},
	} {
		p := mustCompile(t, LangDatalog, tc.sem, winDatalog)
		out := mustExecute(t, p, nil, Options{})
		pf := find(out.Datalog, "win")
		if fmt.Sprint(pf.True) != tc.wantTrue || fmt.Sprint(pf.Undef) != tc.wantUndef {
			t.Fatalf("%s: win = %+v", tc.sem, pf)
		}
		if out.WellDefined != tc.wellDefind {
			t.Fatalf("%s: wellDefined = %v", tc.sem, out.WellDefined)
		}
	}
	// Stable: the odd loop move(a,a) kills every model.
	p := mustCompile(t, LangDatalog, SemStable, winDatalog)
	if out := mustExecute(t, p, nil, Options{}); len(out.DatalogModels) != 0 {
		t.Fatalf("stable models = %+v, want none", out.DatalogModels)
	}
	// Minimal over the positive fragment.
	pm := mustCompile(t, LangDatalog, SemMinimal, "e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).")
	om := mustExecute(t, pm, nil, Options{})
	if pf := find(om.Datalog, "t"); len(pf.True) != 3 {
		t.Fatalf("minimal t = %+v", pf)
	}
	if fmt.Sprint(om.IDB) != "[t]" {
		t.Fatalf("IDB = %v", om.IDB)
	}
}

// TestExecuteDatalogOverDB pins that a registered database's relations
// become facts without mutating the cached plan.
func TestExecuteDatalogOverDB(t *testing.T) {
	dbScript, err := Compile(LangAlgebraEq, SemValid, `rel edge = {(a, b), (b, c)};`)
	if err != nil {
		t.Fatal(err)
	}
	db := dbScript.Script.DB
	p := mustCompile(t, LangDatalog, SemMinimal, "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).")
	rules := len(p.Program.Rules)
	out := mustExecute(t, p, db, Options{})
	var tcFacts []string
	for _, pf := range out.Datalog.Preds {
		if pf.Pred == "tc" {
			tcFacts = pf.True
		}
	}
	if len(tcFacts) != 3 {
		t.Fatalf("tc = %v, want 3 facts", tcFacts)
	}
	if len(p.Program.Rules) != rules {
		t.Fatalf("Execute mutated the cached plan: %d rules, was %d", len(p.Program.Rules), rules)
	}
	// Re-executing the same plan over a different database must not see
	// the first database's facts.
	out2 := mustExecute(t, p, nil, Options{})
	for _, pf := range out2.Datalog.Preds {
		if pf.Pred == "tc" && len(pf.True) != 0 {
			t.Fatalf("plan leaked facts across executions: %v", pf.True)
		}
	}
}

func TestWriteAlgqText(t *testing.T) {
	p := mustCompile(t, LangAlgebraEq, SemStable, winCycle)
	out := mustExecute(t, p, nil, Options{})
	var buf bytes.Buffer
	WriteAlgqText(&buf, out, false)
	want := "% stable reading 1 of 2\n"
	if !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("stable rendering = %q", buf.String())
	}
	// An expression outcome renders as the bare set.
	pe := mustCompile(t, LangAlgebra, SemValid, `{1, 2}`)
	buf.Reset()
	WriteAlgqText(&buf, mustExecute(t, pe, nil, Options{}), false)
	if buf.String() != "{1, 2}\n" {
		t.Fatalf("value rendering = %q", buf.String())
	}
}

func TestWriteDlogText(t *testing.T) {
	p := mustCompile(t, LangDatalog, SemValid, winDatalog)
	out := mustExecute(t, p, nil, Options{})
	var buf bytes.Buffer
	WriteDlogText(&buf, out, "", true)
	if got := buf.String(); got != "win(b).\n% undefined: win(a)\n" {
		t.Fatalf("rendering = %q", got)
	}
	buf.Reset()
	WriteDlogText(&buf, out, "move", false)
	if got := buf.String(); got != "move(a, a).\nmove(a, b).\nmove(b, c).\n" {
		t.Fatalf("-pred move rendering = %q", got)
	}
	ps := mustCompile(t, LangDatalog, SemStable, winDatalog)
	buf.Reset()
	WriteDlogText(&buf, mustExecute(t, ps, nil, Options{}), "", false)
	if buf.String() != "% no stable models\n" {
		t.Fatalf("no-models rendering = %q", buf.String())
	}
}

func TestErrorCode(t *testing.T) {
	for _, tc := range []struct {
		err     error
		compile bool
		want    string
	}{
		{fmt.Errorf("wrap: %w", algebra.ErrCanceled), false, "canceled"},
		{fmt.Errorf("wrap: %w", ground.ErrCanceled), false, "canceled"},
		{fmt.Errorf("wrap: %w", semantics.ErrCanceled), false, "canceled"},
		{fmt.Errorf("wrap: %w", algebra.ErrBudget), false, "budget-exceeded"},
		{&ground.BudgetError{What: "atoms", Limit: 1}, false, "budget-exceeded"},
		{fmt.Errorf("wrap: %w", semantics.ErrTooManyUndef), false, "budget-exceeded"},
		{fmt.Errorf("wrap: %w", ErrUnsupportedSemantics), true, "unsupported-semantics"},
		{errors.New("bad syntax"), true, "parse-error"},
		{errors.New("unknown relation"), false, "eval-error"},
	} {
		if got := ErrorCode(tc.err, tc.compile); got != tc.want {
			t.Errorf("ErrorCode(%v, %v) = %q, want %q", tc.err, tc.compile, got, tc.want)
		}
	}
}

func TestExecuteCancellation(t *testing.T) {
	ch := make(chan struct{})
	close(ch)
	p := mustCompile(t, LangIFPAlgebra, SemValid, `ifp(s, union({0}, map(s, \x -> x + 1)))`)
	_, err := Execute(p, nil, Options{Budget: algebra.Budget{Interrupt: ch}})
	if ErrorCode(err, false) != "canceled" {
		t.Fatalf("divergent IFP under closed interrupt: %v", err)
	}
}

func TestReadInput(t *testing.T) {
	if got, err := ReadInput("", strings.NewReader("from stdin")); err != nil || got != "from stdin" {
		t.Fatalf("ReadInput stdin = %q, %v", got, err)
	}
	if got, err := ReadInput("-", strings.NewReader("dash")); err != nil || got != "dash" {
		t.Fatalf("ReadInput dash = %q, %v", got, err)
	}
	if _, err := ReadInput("/nonexistent/path", nil); err == nil {
		t.Fatal("ReadInput on a missing file should fail")
	}
}
