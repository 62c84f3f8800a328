package server

import (
	"encoding/json"
	"testing"

	"algrec/internal/ivm"
	"algrec/internal/query"
)

// The wire shapes of a /v1/query success body and of a subscription event,
// as the tests decode them.

// namedSetJSON is one defined constant in a query response; sets render in
// the algebra's literal syntax.
type namedSetJSON struct {
	Name  string `json:"name"`
	Set   string `json:"set"`
	Undef string `json:"undef,omitempty"`
}

// queryAnswerJSON is one `query` statement's answer.
type queryAnswerJSON struct {
	Query string `json:"query"`
	Set   string `json:"set"`
	Undef string `json:"undef,omitempty"`
}

// predFactsJSON is one predicate's facts in a datalog response.
type predFactsJSON struct {
	Pred  string   `json:"pred"`
	True  []string `json:"true,omitempty"`
	Undef []string `json:"undef,omitempty"`
}

// resultJSON is the language-dependent payload of a successful query.
type resultJSON struct {
	// Value is the expression languages' single result set.
	Value string `json:"value,omitempty"`
	// Defs, Queries and Models carry algebra= outcomes.
	Defs    []namedSetJSON    `json:"defs,omitempty"`
	Queries []queryAnswerJSON `json:"queries,omitempty"`
	Models  [][]namedSetJSON  `json:"models,omitempty"`
	// IDB, Preds and DatalogModels carry datalog outcomes.
	IDB           []string          `json:"idb,omitempty"`
	Preds         []predFactsJSON   `json:"preds,omitempty"`
	DatalogModels [][]predFactsJSON `json:"datalogModels,omitempty"`
}

// queryResponse is the POST /v1/query success body.
type queryResponse struct {
	OK          bool       `json:"ok"`
	Language    string     `json:"language"`
	Semantics   string     `json:"semantics"`
	WellDefined bool       `json:"wellDefined"`
	CacheHit    bool       `json:"cacheHit"`
	Result      resultJSON `json:"result"`
	WallMS      float64    `json:"wallMS"`
}

// subEvent is one subscription event as a client decodes it.
type subEvent struct {
	Event   string          `json:"event"`
	Version uint64          `json:"version,omitempty"`
	Result  *resultJSON     `json:"result,omitempty"`
	Preds   []ivm.PredDelta `json:"preds,omitempty"`
	Reason  string          `json:"reason,omitempty"`
}

// decodeResult is an outcome's result object as a client decodes it.
func decodeResult(t *testing.T, out *query.Outcome) (res resultJSON) {
	t.Helper()
	b, err := appendResult(nil, out, nil)
	if err == nil {
		err = json.Unmarshal(b, &res)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}
