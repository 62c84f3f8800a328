// Package query is the shared parse/validate/evaluate pipeline behind every
// entry point that runs user queries: the one-shot CLIs (cmd/algq, cmd/dlog)
// and the resident HTTP query service (internal/server, cmd/algrecd). It
// factors the previously duplicated input handling of the CLIs into one
// place and splits evaluation into the two phases a serving layer needs:
//
//   - Compile turns (language, semantics, source text) into a Plan — parsed,
//     validated, and independent of any database, so a plan can be cached
//     and shared by concurrent requests against different databases;
//   - Execute runs a Plan against a database under per-request Options
//     (budgets, cancellation, stable-search bound) and returns a structured
//     Outcome that renders to the CLIs' exact text format (WriteAlgqText,
//     WriteDlogText) or serializes to the server's JSON schema.
//
// The four languages are the paper's: "algebra" (a single recursion-free
// expression), "ifp-algebra" (an expression with the inflationary fixpoint
// operator), "algebra=" (recursive defining equations, Section 3), and
// "datalog" (the deductive language with negation, Section 4). The six
// semantics are valid, wellfounded, stable, inflationary, stratified and
// minimal; CompatibleSemantics says which pairs are evaluable.
//
// docs/architecture.md walks the full lifecycle — parse, translate, plan,
// ground, fixpoint, result — through this package's Compile/Execute split,
// including where the streaming execution runtime and the reference switch
// (Budget.NoStreaming) plug in.
package query

import (
	"fmt"
	"io"
	"os"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/datalog"
	"algrec/internal/semantics"
)

// Language identifies one of the paper's four query languages.
type Language string

// The four query languages.
const (
	// LangAlgebra is a single algebra expression without recursion: the
	// operators ∪ − × σ MAP over complex objects (Section 2.3).
	LangAlgebra Language = "algebra"
	// LangIFPAlgebra extends LangAlgebra with the inflationary fixpoint
	// operator ifp(x, e) (Section 3.1).
	LangIFPAlgebra Language = "ifp-algebra"
	// LangAlgebraEq is the algebra= language: scripts of rel/def/query
	// statements whose recursive definitions are read under a chosen
	// semantics (Section 3.2).
	LangAlgebraEq Language = "algebra="
	// LangDatalog is the deductive language with negation (Section 4).
	LangDatalog Language = "datalog"
)

// ParseLanguage maps a name accepted on command lines and in requests to a
// Language. Accepted aliases: "ifp" for ifp-algebra, "algebra-eq" and
// "core" for algebra=, "dlog" for datalog.
func ParseLanguage(name string) (Language, error) {
	switch name {
	case "algebra":
		return LangAlgebra, nil
	case "ifp-algebra", "ifp":
		return LangIFPAlgebra, nil
	case "algebra=", "algebra-eq", "core":
		return LangAlgebraEq, nil
	case "datalog", "dlog":
		return LangDatalog, nil
	default:
		return "", fmt.Errorf("query: unknown language %q (want algebra, ifp-algebra, algebra= or datalog)", name)
	}
}

// Semantics identifies one of the six evaluation semantics.
type Semantics string

// The six semantics.
const (
	// SemValid is the paper's valid semantics (Section 2.2).
	SemValid Semantics = "valid"
	// SemWellFounded is the well-founded (alternating fixpoint) semantics.
	SemWellFounded Semantics = "wellfounded"
	// SemStable is the stable-model semantics; evaluation may return any
	// number of models.
	SemStable Semantics = "stable"
	// SemInflationary reads negation as "was not derived so far".
	SemInflationary Semantics = "inflationary"
	// SemStratified is stratum-by-stratum minimal-model evaluation.
	SemStratified Semantics = "stratified"
	// SemMinimal is the minimal model of a positive program.
	SemMinimal Semantics = "minimal"
)

// ParseSemantics maps a name accepted on command lines and in requests to a
// Semantics. The empty string defaults to SemValid; "well-founded" and
// "wfs" are accepted for SemWellFounded.
func ParseSemantics(name string) (Semantics, error) {
	switch name {
	case "", "valid":
		return SemValid, nil
	case "wellfounded", "well-founded", "wfs":
		return SemWellFounded, nil
	case "stable":
		return SemStable, nil
	case "inflationary":
		return SemInflationary, nil
	case "stratified":
		return SemStratified, nil
	case "minimal":
		return SemMinimal, nil
	default:
		return "", fmt.Errorf("query: unknown semantics %q (want valid, wellfounded, stable, inflationary, stratified or minimal)", name)
	}
}

// ErrUnsupportedSemantics is wrapped by Compile errors rejecting a
// (language, semantics) pair outside CompatibleSemantics.
var ErrUnsupportedSemantics = fmt.Errorf("query: semantics not supported for this language")

// CompatibleSemantics returns the semantics under which the language can be
// evaluated. The expression languages are deterministic — every semantics
// agrees — so all six are accepted and evaluate identically. algebra=
// programs evaluate natively under valid and inflationary and, through the
// Proposition 5.4 translation to deduction, under wellfounded and stable;
// minimal and stratified have no algebra= reading (defining equations have
// no strata). Datalog supports all six.
func CompatibleSemantics(lang Language) []Semantics {
	switch lang {
	case LangAlgebra, LangIFPAlgebra, LangDatalog:
		return []Semantics{SemValid, SemWellFounded, SemStable, SemInflationary, SemStratified, SemMinimal}
	case LangAlgebraEq:
		return []Semantics{SemValid, SemWellFounded, SemStable, SemInflationary}
	default:
		return nil
	}
}

// Plan is a compiled query: parsed and validated, independent of any
// database. Plans are immutable after Compile and safe to share between
// concurrent Execute calls — that is what makes them cacheable.
type Plan struct {
	// Language and Semantics are the pair the plan was compiled for.
	Language  Language
	Semantics Semantics
	// Source is the original query text.
	Source string

	// Expr is the compiled expression for LangAlgebra and LangIFPAlgebra.
	Expr algebra.Expr
	// kernel is Expr compiled to rules for the relational kernel; nil when
	// fallback says why the value evaluator answers it instead.
	kernel   *kernelPlan
	fallback string
	// Script is the compiled script for LangAlgebraEq: inline relations,
	// the program of defining equations, and query statements.
	Script *parse.Script
	// Program is the compiled program for LangDatalog.
	Program *datalog.Program
}

// Compile parses and validates src as a query in the given language under
// the given semantics. The result is database-independent; run it with
// Execute. Compile errors are syntax or validation errors (including an
// ErrUnsupportedSemantics pair); they are not cached by the serving layer.
func Compile(lang Language, sem Semantics, src string) (*Plan, error) {
	supported := false
	for _, s := range CompatibleSemantics(lang) {
		if s == sem {
			supported = true
			break
		}
	}
	if !supported {
		return nil, fmt.Errorf("%w: %s under %s (supported: %v)", ErrUnsupportedSemantics, lang, sem, CompatibleSemantics(lang))
	}
	p := &Plan{Language: lang, Semantics: sem, Source: src}
	switch lang {
	case LangAlgebra, LangIFPAlgebra:
		e, err := parse.ParseExpr(src)
		if err != nil {
			return nil, err
		}
		if lang == LangAlgebra {
			if algebra.HasIFP(e) {
				return nil, fmt.Errorf("query: the algebra language has no ifp operator; compile the query as ifp-algebra")
			}
		}
		p.Expr = e
		p.kernel, p.fallback = planExpr(e)
	case LangAlgebraEq:
		s, err := parse.ParseScript(src)
		if err != nil {
			return nil, err
		}
		p.Script = s
	case LangDatalog:
		prog, err := datalog.ParseProgram(src)
		if err != nil {
			return nil, err
		}
		if sem == SemStratified {
			if !datalog.IsStratified(prog) {
				return nil, fmt.Errorf("%w: the program is not stratifiable", ErrUnsupportedSemantics)
			}
		}
		p.Program = prog
	default:
		return nil, fmt.Errorf("query: unknown language %q", lang)
	}
	return p, nil
}

// ExprPlan is the plan Compile makes of an ifp-algebra query text, for an
// expression already parsed (or generated).
func ExprPlan(e algebra.Expr) *Plan {
	p := &Plan{Language: LangIFPAlgebra, Semantics: SemValid, Source: e.String(), Expr: e}
	p.kernel, p.fallback = planExpr(e)
	return p
}

// mapDatalogSemantics converts a query Semantics to the engine-level
// semantics.Semantics (SemStable is dispatched separately).
func mapDatalogSemantics(sem Semantics) (semantics.Semantics, error) {
	switch sem {
	case SemValid:
		return semantics.SemValid, nil
	case SemWellFounded:
		return semantics.SemWellFounded, nil
	case SemInflationary:
		return semantics.SemInflationary, nil
	case SemStratified:
		return semantics.SemStratified, nil
	case SemMinimal:
		return semantics.SemMinimal, nil
	default:
		return 0, fmt.Errorf("query: no engine semantics for %q", sem)
	}
}

// ReadInput reads a query from path, or from stdin when path is "" or "-".
// It is the shared input convention of cmd/algq and cmd/dlog.
func ReadInput(path string, stdin io.Reader) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
