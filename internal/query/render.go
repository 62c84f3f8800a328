package query

import (
	"fmt"
	"io"
	"sort"
)

// WriteAlgqText renders an algebra= (or expression) Outcome in cmd/algq's
// text format. showDefs forces every defined constant to print even when the
// script has query statements (the -defs flag); defined constants always
// print when there are no queries. The stable reading ignores showDefs, as
// the CLI does.
func WriteAlgqText(w io.Writer, o *Outcome, showDefs bool) {
	if o.HasValue {
		text, _ := o.AppendValue(nil, nil) // no poll, no error
		w.Write(append(text, '\n'))
		return
	}
	switch o.Semantics {
	case SemStable:
		if len(o.Models) == 0 {
			fmt.Fprintln(w, "% no stable readings")
			return
		}
		for i, m := range o.Models {
			fmt.Fprintf(w, "%% stable reading %d of %d\n", i+1, len(o.Models))
			for _, d := range m {
				fmt.Fprintf(w, "%s = %s\n", d.Name, d.Set)
			}
		}
	case SemInflationary:
		if showDefs || len(o.Queries) == 0 {
			for _, d := range o.Defs {
				fmt.Fprintf(w, "%s = %s\n", d.Name, d.Set)
			}
		}
		for _, q := range o.Queries {
			fmt.Fprintf(w, "%s = %s\n", q.Src, q.Set)
		}
	default: // SemValid and SemWellFounded share the three-valued format.
		if o.Semantics == SemValid && !o.WellDefined {
			fmt.Fprintln(w, "% warning: the program is not well defined on this database (no initial valid model);")
			fmt.Fprintln(w, "% undefined memberships are reported per set below")
		}
		if showDefs || len(o.Queries) == 0 {
			for _, d := range o.Defs {
				fmt.Fprintf(w, "%s = %s", d.Name, d.Set)
				if !d.Undef.IsEmpty() {
					fmt.Fprintf(w, "  %% undefined: %s", d.Undef)
				}
				fmt.Fprintln(w)
			}
		}
		for _, q := range o.Queries {
			fmt.Fprintf(w, "%s = %s", q.Src, q.Set)
			if !q.Undef.IsEmpty() {
				fmt.Fprintf(w, "  %% undefined: %s", q.Undef)
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteDlogText renders a datalog Outcome in cmd/dlog's text format. pred
// restricts the output to one predicate (the -pred flag; "" prints every
// derived predicate) and undef also lists undefined atoms (the -undef flag,
// ignored for stable models, as the CLI does).
func WriteDlogText(w io.Writer, o *Outcome, pred string, undef bool) {
	if o.Semantics == SemStable {
		if len(o.DatalogModels) == 0 {
			fmt.Fprintln(w, "% no stable models")
			return
		}
		for i, m := range o.DatalogModels {
			fmt.Fprintf(w, "%% stable model %d of %d\n", i+1, len(o.DatalogModels))
			writeDlogModel(w, o, &m, pred, false)
		}
		return
	}
	writeDlogModel(w, o, o.Datalog, pred, undef)
}

// writeDlogModel prints one interpretation: true facts of the selected
// predicates, then (optionally) the undefined atoms.
func writeDlogModel(w io.Writer, o *Outcome, m *DatalogModel, pred string, undef bool) {
	preds := o.IDB
	if pred != "" {
		preds = []string{pred}
	}
	preds = append([]string(nil), preds...)
	sort.Strings(preds)
	byName := map[string]*PredFacts{}
	for i := range m.Preds {
		byName[m.Preds[i].Pred] = &m.Preds[i]
	}
	for _, q := range preds {
		if pf := byName[q]; pf != nil {
			for _, key := range pf.True {
				fmt.Fprintln(w, key+".")
			}
		}
	}
	if undef {
		any := false
		for _, q := range preds {
			if pf := byName[q]; pf != nil {
				for _, key := range pf.Undef {
					fmt.Fprintln(w, "% undefined: "+key)
					any = true
				}
			}
		}
		if !any {
			fmt.Fprintln(w, "% undefined: (none)")
		}
	}
}
