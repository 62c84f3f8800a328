package translate

import (
	"algrec/internal/builtin"
	"algrec/internal/datalog"
)

// StepIndex implements the transformation of Proposition 5.2: it produces a
// program P' such that evaluating P' under the valid (or well-founded)
// semantics yields, in the unprimed predicates, exactly the inflationary
// fixpoint of P. Following the paper's proof:
//
//	(i)   every predicate R gains a primed, step-indexed variant R';
//	(ii)  every ground fact R(ā) becomes R'(0, ā);
//	(iii) every rule ...(¬)Q(x̄)... → R(ȳ) becomes
//	      ...(¬)Q'(i, x̄)... → R'(i+1, ȳ);
//	(iv)  for every R': R'(i, x̄) → R'(i+1, x̄) and R'(i, x̄) → R(x̄).
//
// "At each step of the derivation, new facts can only be derived using facts
// with smaller indexes" — the index makes the program locally stratified, so
// its valid model is two-valued and replays the inflationary computation.
//
// The paper's P' ranges the index over all naturals; an executable program
// needs the guard i < bound on every index increment, since the copy rule
// (iv) would otherwise generate atoms forever. Any bound at least the number
// of inflationary steps of P is exact; Engine.Inflationary reports that
// number, and StepIndexAuto uses it.
func StepIndex(p *datalog.Program, bound int64) *datalog.Program {
	out := &datalog.Program{}
	iv := datalog.Var("I__")
	primed := func(pred string) string { return pred + "__s" }
	primedAtom := func(a datalog.Atom, idx datalog.Term) datalog.Atom {
		args := make([]datalog.Term, 0, len(a.Args)+1)
		args = append(args, idx)
		args = append(args, a.Args...)
		return datalog.Atom{Pred: primed(a.Pred), Args: args}
	}
	succI := datalog.Apply{Fn: builtin.Plus.Name(), Args: []datalog.Term{iv, datalog.CInt(1)}}
	guard := datalog.Cmp(builtin.Lt, iv, datalog.CInt(bound))

	preds := map[string]int{}
	for _, r := range p.Rules {
		preds[r.Head.Pred] = len(r.Head.Args)
		for _, l := range r.Body {
			if la, ok := l.(datalog.LitAtom); ok {
				preds[la.Atom.Pred] = len(la.Atom.Args)
			}
		}
	}

	for _, r := range p.Rules {
		if r.IsFact() {
			// (ii): R(ā) → R'(0, ā).
			out.Rules = append(out.Rules, datalog.Rule{Head: primedAtom(r.Head, datalog.CInt(0))})
			continue
		}
		// (iii): prime every body atom at index i, the head at i+1, guarded.
		var body []datalog.Literal
		sawPos := false
		for _, l := range r.Body {
			switch ll := l.(type) {
			case datalog.LitAtom:
				if !ll.Neg {
					sawPos = true
				}
				body = append(body, datalog.LitAtom{Neg: ll.Neg, Atom: primedAtom(ll.Atom, iv)})
			case datalog.LitCmp:
				body = append(body, ll)
			}
		}
		if !sawPos {
			// Negated atoms do not bind the index; a rule whose body has no
			// positive atom can only ever fire at the first inflationary
			// step (every negation holds against the empty step-0 state), so
			// pin the index to 0.
			body = append([]datalog.Literal{datalog.Cmp(builtin.Eq, iv, datalog.CInt(0))}, body...)
		}
		body = append(body, guard)
		out.Rules = append(out.Rules, datalog.Rule{Head: primedAtom(r.Head, succI), Body: body})
	}

	// (iv): accumulation and projection rules for every predicate.
	predNames := make([]string, 0, len(preds))
	for q := range preds {
		predNames = append(predNames, q)
	}
	// deterministic order
	for i := 0; i < len(predNames); i++ {
		for j := i + 1; j < len(predNames); j++ {
			if predNames[j] < predNames[i] {
				predNames[i], predNames[j] = predNames[j], predNames[i]
			}
		}
	}
	for _, q := range predNames {
		arity := preds[q]
		vars := make([]datalog.Term, arity)
		for k := range vars {
			vars[k] = datalog.Var("X" + string(rune('A'+k%26)) + itoa(k))
		}
		pa := datalog.Atom{Pred: primed(q), Args: append([]datalog.Term{iv}, vars...)}
		// R'(i, x̄), i < bound → R'(i+1, x̄)
		out.Rules = append(out.Rules, datalog.Rule{
			Head: datalog.Atom{Pred: primed(q), Args: append([]datalog.Term{succI}, vars...)},
			Body: []datalog.Literal{datalog.LitAtom{Atom: pa}, guard},
		})
		// R'(i, x̄) → R(x̄)
		out.Rules = append(out.Rules, datalog.Rule{
			Head: datalog.Atom{Pred: q, Args: vars},
			Body: []datalog.Literal{datalog.LitAtom{Atom: pa}},
		})
	}
	emitTranslate("stepindex", len(p.Rules), len(out.Rules), int(bound))
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
