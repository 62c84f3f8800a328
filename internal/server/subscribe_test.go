package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tcProgram is the datalog subscription workload over the registered edge
// relation: the transitive closure, recomputed incrementally as edges come
// and go.
const tcProgram = `tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).`

// postFacts posts a mutation batch to /v1/dbs/{name}/facts.
func postFacts(t *testing.T, ts *httptest.Server, name string, req mutateRequest) (int, mutateResponse, errorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/dbs/"+name+"/facts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST facts: %v", err)
	}
	defer resp.Body.Close()
	var okBody mutateResponse
	var bad errorBody
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&okBody); err != nil {
			t.Fatalf("decode mutate response: %v", err)
		}
	} else if err := dec.Decode(&bad); err != nil {
		t.Fatalf("decode mutate error: %v", err)
	}
	return resp.StatusCode, okBody, bad
}

// insFact / delFact build single-fact batches with string arguments.
func jsonFact(pred string, args ...any) factJSON { return factJSON{Pred: pred, Args: args} }

// subStream is an open subscription: the response body plus a line reader.
type subStream struct {
	resp *http.Response
	rd   *bufio.Reader
}

// openSub subscribes and returns the live stream (status must be 200).
func openSub(t *testing.T, ts *httptest.Server, req subscribeRequest) *subStream {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/subscribe: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		var bad errorBody
		_ = json.NewDecoder(resp.Body).Decode(&bad)
		resp.Body.Close()
		t.Fatalf("subscribe: status %d, error %+v", resp.StatusCode, bad)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return &subStream{resp: resp, rd: bufio.NewReader(resp.Body)}
}

// next reads one ndjson event from the stream (blocking).
func (st *subStream) next(t *testing.T) subEventJSON {
	t.Helper()
	line, err := st.rd.ReadString('\n')
	if err != nil {
		t.Fatalf("read event: %v (got %q)", err, line)
	}
	var e subEventJSON
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("decode event %q: %v", line, err)
	}
	return e
}

// subscribeFailure posts a subscription expected to fail and returns its
// structured error.
func subscribeFailure(t *testing.T, ts *httptest.Server, req subscribeRequest) (int, errorBody) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/subscribe: %v", err)
	}
	defer resp.Body.Close()
	var bad errorBody
	if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return resp.StatusCode, bad
}

// waitCounter polls the server's stats until the counter reaches want.
func waitCounter(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := s.Stats().Snapshot()[name]; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never reached %d (snapshot: %v)", name, want, s.Stats().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func dlogSub(db, query string) subscribeRequest {
	return subscribeRequest{queryRequest: queryRequest{
		DB: db, Language: "datalog", Semantics: "stratified", Query: query,
	}}
}

// TestMutateFacts drives the mutation endpoint without subscriptions:
// inserts and deletes must be visible to subsequent queries, versions must
// advance, and malformed batches must be rejected with structured errors.
func TestMutateFacts(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, okBody, _ := postFacts(t, ts, "g", mutateRequest{
		Insert: []factJSON{jsonFact("edge", "d", "e")},
		Delete: []factJSON{jsonFact("edge", "a", "b")},
	})
	if status != http.StatusOK || !okBody.OK {
		t.Fatalf("mutate: status %d body %+v", status, okBody)
	}
	if okBody.Version != 2 || okBody.Inserted != 1 || okBody.Deleted != 1 {
		t.Fatalf("mutate response: %+v", okBody)
	}

	qstatus, qresp, _ := postQuery(t, ts, queryRequest{DB: "g", Language: "algebra", Query: "edge"})
	if qstatus != http.StatusOK {
		t.Fatalf("query after mutation: status %d", qstatus)
	}
	if want := "{(b, c), (c, d), (d, e)}"; qresp.Result.Value != want {
		t.Fatalf("edge after mutation = %s, want %s", qresp.Result.Value, want)
	}

	// Deleting a missing fact and inserting a duplicate are no-ops on the
	// contents but still bump the version (the batch was applied).
	status, okBody, _ = postFacts(t, ts, "g", mutateRequest{
		Insert: []factJSON{jsonFact("edge", "b", "c")},
		Delete: []factJSON{jsonFact("edge", "x", "y")},
	})
	if status != http.StatusOK || okBody.Version != 3 {
		t.Fatalf("no-op mutate: status %d body %+v", status, okBody)
	}

	// Tuple-valued and integer arguments round-trip through the JSON
	// mapping, integers exactly (2^53 + 1 has no float64).
	status, _, _ = postFacts(t, ts, "g", mutateRequest{
		Insert: []factJSON{jsonFact("weights", "a", 3), jsonFact("pairs", []any{1, 2}, true), jsonFact("big", int64(1<<53+1))},
	})
	if status != http.StatusOK {
		t.Fatalf("typed mutate: status %d", status)
	}
	qstatus, qresp, _ = postQuery(t, ts, queryRequest{DB: "g", Language: "algebra", Query: "weights"})
	if qstatus != http.StatusOK || qresp.Result.Value != "{(a, 3)}" {
		t.Fatalf("weights = %q (status %d)", qresp.Result.Value, qstatus)
	}
	qstatus, qresp, _ = postQuery(t, ts, queryRequest{DB: "g", Language: "algebra", Query: "big"})
	if qstatus != http.StatusOK || qresp.Result.Value != "{9007199254740993}" {
		t.Fatalf("big = %q (status %d)", qresp.Result.Value, qstatus)
	}

	for _, tc := range []struct {
		name string
		db   string
		req  mutateRequest
		code string
	}{
		{"unknown db", "nope", mutateRequest{Insert: []factJSON{jsonFact("e", "a")}}, codeUnknownDB},
		{"empty batch", "g", mutateRequest{}, codeBadRequest},
		{"missing pred", "g", mutateRequest{Insert: []factJSON{{Args: []any{"a"}}}}, codeBadRequest},
		{"zero args", "g", mutateRequest{Insert: []factJSON{{Pred: "e"}}}, codeBadRequest},
		{"float arg", "g", mutateRequest{Insert: []factJSON{jsonFact("e", 1.5)}}, codeBadRequest},
		{"null arg", "g", mutateRequest{Insert: []factJSON{jsonFact("e", nil)}}, codeBadRequest},
	} {
		status, _, bad := postFacts(t, ts, tc.db, tc.req)
		if status == http.StatusOK || bad.Error.Code != tc.code {
			t.Errorf("%s: status %d code %q, want code %q", tc.name, status, bad.Error.Code, tc.code)
		}
	}
}

// TestSubscribeLifecycle is the full happy path: register a recursive query,
// get the snapshot, mutate the database twice, observe incremental deltas,
// disconnect, and see the subscription drain out of the server's gauges.
func TestSubscribeLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	st := openSub(t, ts, dlogSub("g", tcProgram))

	snap := st.next(t)
	if snap.Event != "snapshot" || snap.Result == nil {
		t.Fatalf("first event = %+v, want snapshot", snap)
	}
	tc := predByName(snap.Result.Preds, "tc")
	if tc == nil || !reflect.DeepEqual(tc.True, []string{
		"tc(a, b)", "tc(a, c)", "tc(a, d)", "tc(b, c)", "tc(b, d)", "tc(c, d)",
	}) {
		t.Fatalf("snapshot tc = %+v", tc)
	}

	if _, _, bad := postFacts(t, ts, "g", mutateRequest{
		Insert: []factJSON{jsonFact("edge", "d", "e")},
	}); bad.Error.Code != "" {
		t.Fatalf("mutate: %+v", bad)
	}
	d := st.next(t)
	if d.Event != "delta" || d.Version != 2 {
		t.Fatalf("second event = %+v, want delta @v2", d)
	}
	wantPreds := []struct {
		pred  string
		added []string
	}{
		{"edge", []string{"edge(d, e)"}},
		{"tc", []string{"tc(a, e)", "tc(b, e)", "tc(c, e)", "tc(d, e)"}},
	}
	if len(d.Preds) != len(wantPreds) {
		t.Fatalf("delta preds = %+v", d.Preds)
	}
	for i, w := range wantPreds {
		if d.Preds[i].Pred != w.pred || !reflect.DeepEqual(d.Preds[i].Added, w.added) || len(d.Preds[i].Removed) != 0 {
			t.Fatalf("delta pred %d = %+v, want added %v", i, d.Preds[i], w.added)
		}
	}

	if _, _, bad := postFacts(t, ts, "g", mutateRequest{
		Delete: []factJSON{jsonFact("edge", "a", "b")},
	}); bad.Error.Code != "" {
		t.Fatalf("mutate: %+v", bad)
	}
	d = st.next(t)
	if d.Event != "delta" || d.Version != 3 {
		t.Fatalf("third event = %+v, want delta @v3", d)
	}
	tcd := d.Preds[len(d.Preds)-1]
	wantRemoved := []string{"tc(a, b)", "tc(a, c)", "tc(a, d)", "tc(a, e)"}
	if tcd.Pred != "tc" || !reflect.DeepEqual(tcd.Removed, wantRemoved) || len(tcd.Added) != 0 {
		t.Fatalf("delete delta = %+v, want removed %v", tcd, wantRemoved)
	}

	// A mutation that does not change the subscribed view produces no event:
	// the next event after it must be the delta of the following mutation.
	if _, _, bad := postFacts(t, ts, "g", mutateRequest{
		Delete: []factJSON{jsonFact("edge", "x", "z")},
	}); bad.Error.Code != "" {
		t.Fatalf("mutate: %+v", bad)
	}
	if _, _, bad := postFacts(t, ts, "g", mutateRequest{
		Insert: []factJSON{jsonFact("edge", "a", "b")},
	}); bad.Error.Code != "" {
		t.Fatalf("mutate: %+v", bad)
	}
	d = st.next(t)
	if d.Event != "delta" || d.Version != 5 {
		t.Fatalf("fourth event = %+v, want delta @v5", d)
	}

	// Client disconnect: the writer observes the dead context and the
	// subscription drains out with reason "client-gone".
	st.resp.Body.Close()
	waitCounter(t, s, "server.subscription.ends.client-gone", 1)
	if n := s.activeSubs.Load(); n != 0 {
		t.Fatalf("activeSubs after disconnect = %d", n)
	}
	snapCounters := s.Stats().Snapshot()
	if snapCounters["server.subscriptions"] != 1 || snapCounters["server.subscription.events"] != 4 {
		t.Fatalf("subscription counters: %v", snapCounters)
	}
}

// TestSubscribeSSE checks the SSE wire format and the drain goodbye: events
// arrive as event:/data: frames and BeginDrain ends the stream with a "bye"
// carrying reason "drain".
func TestSubscribeSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := dlogSub("g", tcProgram)
	req.Format = "sse"
	st := openSub(t, ts, req)
	if ct := st.resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	readFrame := func() (kind string, e subEventJSON) {
		t.Helper()
		ev, err := st.rd.ReadString('\n')
		if err != nil {
			t.Fatalf("read event line: %v", err)
		}
		data, err := st.rd.ReadString('\n')
		if err != nil {
			t.Fatalf("read data line: %v", err)
		}
		blank, err := st.rd.ReadString('\n')
		if err != nil || strings.TrimRight(blank, "\n") != "" {
			t.Fatalf("frame not blank-terminated: %q, %v", blank, err)
		}
		kind = strings.TrimRight(strings.TrimPrefix(ev, "event: "), "\n")
		payload := strings.TrimRight(strings.TrimPrefix(data, "data: "), "\n")
		if err := json.Unmarshal([]byte(payload), &e); err != nil {
			t.Fatalf("decode %q: %v", payload, err)
		}
		return kind, e
	}

	kind, e := readFrame()
	if kind != "snapshot" || e.Event != "snapshot" {
		t.Fatalf("first frame = %q %+v", kind, e)
	}
	postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "d", "e")}})
	kind, e = readFrame()
	if kind != "delta" || len(e.Preds) == 0 {
		t.Fatalf("second frame = %q %+v", kind, e)
	}

	s.BeginDrain()
	kind, e = readFrame()
	if kind != "bye" || e.Reason != reasonDrain {
		t.Fatalf("drain frame = %q %+v, want bye/drain", kind, e)
	}
	waitCounter(t, s, "server.subscription.ends.drain", 1)

	// A draining server refuses new subscriptions and mutations.
	if status, bad := subscribeFailure(t, ts, dlogSub("g", tcProgram)); status != http.StatusServiceUnavailable || bad.Error.Code != codeShuttingDown {
		t.Fatalf("subscribe while draining: %d %+v", status, bad)
	}
	if status, _, bad := postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "q", "r")}}); status != http.StatusServiceUnavailable || bad.Error.Code != codeShuttingDown {
		t.Fatalf("mutate while draining: %d %+v", status, bad)
	}
}

// TestSubscribeCoalescing holds the writer between events (via the test
// hook) while two mutations land: the subscriber must fold them into one
// delta event and count the fold.
func TestSubscribeCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.testHookSubEvent = func() { <-gate }

	st := openSub(t, ts, dlogSub("g", tcProgram))
	gate <- struct{}{} // release iteration 1: the snapshot write
	snap := st.next(t)
	if snap.Event != "snapshot" {
		t.Fatalf("first event = %+v", snap)
	}

	// The writer is now parked in iteration 2's hook. Land two mutations —
	// the second folds into the pending delta of the first. The second
	// mutation also removes a fact the first added, so the fold must
	// cancel it.
	postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "d", "e"), jsonFact("edge", "p", "q")}})
	postFacts(t, ts, "g", mutateRequest{Delete: []factJSON{jsonFact("edge", "p", "q")}})

	gate <- struct{}{} // release iteration 2: deliver the folded delta
	d := st.next(t)
	if d.Event != "delta" || d.Version != 3 {
		t.Fatalf("folded event = %+v, want delta @v3", d)
	}
	edge := d.Preds[0]
	if edge.Pred != "edge" || !reflect.DeepEqual(edge.Added, []string{"edge(d, e)"}) || len(edge.Removed) != 0 {
		t.Fatalf("folded edge delta = %+v, want only edge(d, e) added", edge)
	}

	close(gate) // the writer is parked in the next iteration's hook; free it for good
	st.resp.Body.Close()
	waitCounter(t, s, "server.subscription.ends.client-gone", 1)
	if got := s.Stats().Snapshot()["server.subscription.coalesced"]; got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
}

// TestSubscribeSlowConsumer caps the pending delta low and lands mutations
// while the writer is parked: the subscription must be closed with reason
// "slow-consumer" instead of buffering without bound.
func TestSubscribeSlowConsumer(t *testing.T) {
	s, ts := newTestServer(t, Config{SubMaxPending: 3})
	gate := make(chan struct{})
	s.testHookSubEvent = func() { <-gate }

	st := openSub(t, ts, dlogSub("g", tcProgram))
	gate <- struct{}{}
	if snap := st.next(t); snap.Event != "snapshot" {
		t.Fatalf("first event = %+v", snap)
	}

	// Parked writer; each mutation adds one edge fact plus tc facts, so the
	// folded pending crosses the 3-entry cap on the second mutation.
	postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "x1", "y1")}})
	postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "x2", "y2")}})

	gate <- struct{}{}
	bye := st.next(t)
	if bye.Event != "bye" || bye.Reason != reasonSlowConsumer {
		t.Fatalf("event = %+v, want bye/slow-consumer", bye)
	}
	waitCounter(t, s, "server.subscription.ends.slow-consumer", 1)
	if n := s.activeSubs.Load(); n != 0 {
		t.Fatalf("activeSubs = %d", n)
	}
}

// TestSubscribeDBReplaced replaces the database wholesale under a live
// subscription: the stream must end with reason "db-replaced".
func TestSubscribeDBReplaced(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	st := openSub(t, ts, dlogSub("g", tcProgram))
	if snap := st.next(t); snap.Event != "snapshot" {
		t.Fatalf("first event = %+v", snap)
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/dbs/g", strings.NewReader(`rel edge = {(p, q)};`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT db: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT db: status %d", resp.StatusCode)
	}

	bye := st.next(t)
	if bye.Event != "bye" || bye.Reason != reasonReplaced {
		t.Fatalf("event = %+v, want bye/db-replaced", bye)
	}
	waitCounter(t, s, "server.subscription.ends.db-replaced", 1)
}

// TestSubscribeInterruptOnDisconnect wires the client's disappearance into
// view maintenance: with the writer parked, the disconnect of a view's last
// interested client closes the view's stop channel — its Budget/Ground
// Interrupt — so the next mutation's maintenance fails and closes the
// subscription with reason "error".
func TestSubscribeInterruptOnDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.testHookSubEvent = func() { <-gate }

	st := openSub(t, ts, dlogSub("g", tcProgram))

	// The writer is parked in its first iteration's hook, before even the
	// snapshot write — it can never reach its own disconnect check, so the
	// only way the subscription can close is maintenance observing the
	// stopped view through the Budget/Ground Interrupt hooks.
	entry, ok := s.reg.entry("g")
	if !ok {
		t.Fatal("entry g missing")
	}
	entry.mu.Lock()
	var sub *subscriber
	for _, lv := range entry.views {
		for candidate := range lv.subs {
			sub = candidate
		}
	}
	entry.mu.Unlock()
	if sub == nil {
		t.Fatal("no registered subscriber")
	}

	// Drop the client, then keep mutating until maintenance trips over the
	// interrupt (cancellation propagates to the request context
	// asynchronously, hence the loop).
	st.resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i))}})
		sub.mu.Lock()
		reason := sub.reason
		sub.mu.Unlock()
		if reason == reasonError {
			break
		}
		if reason != "" {
			t.Fatalf("subscription closed with reason %q, want %q", reason, reasonError)
		}
		if time.Now().After(deadline) {
			t.Fatal("maintenance never observed the interrupt")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate) // release the parked writer so it can say goodbye and exit
	waitCounter(t, s, "server.subscription.ends.error", 1)
	if n := s.activeSubs.Load(); n != 0 {
		t.Fatalf("activeSubs = %d", n)
	}
}

// TestSubscribeErrorPaths covers the request-validation failures.
func TestSubscribeErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		req  subscribeRequest
		code string
	}{
		{"anonymous db", dlogSub("", tcProgram), codeBadRequest},
		{"unknown db", dlogSub("nope", tcProgram), codeUnknownDB},
		{"bad format", func() subscribeRequest {
			r := dlogSub("g", tcProgram)
			r.Format = "xml"
			return r
		}(), codeBadRequest},
		{"bad language", subscribeRequest{queryRequest: queryRequest{DB: "g", Language: "prolog", Query: "x."}}, codeBadRequest},
		{"missing query", subscribeRequest{queryRequest: queryRequest{DB: "g", Language: "datalog"}}, codeBadRequest},
		{"parse error", dlogSub("g", "tc(X :- edge"), codeParseError},
	} {
		if _, bad := subscribeFailure(t, ts, tc.req); bad.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, bad.Error.Code, tc.code)
		}
	}
}

// TestSubscribeRecomputeMode subscribes a non-incrementalizable plan (the
// algebra language has no delta rules): maintenance must fall back to
// recompute-and-diff, and snapshots of unchanged queries must not produce
// spurious events.
func TestSubscribeRecomputeMode(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := subscribeRequest{queryRequest: queryRequest{
		DB: "g", Language: "algebra", Query: "edge",
	}}
	st := openSub(t, ts, req)
	snap := st.next(t)
	if snap.Event != "snapshot" || snap.Result == nil || snap.Result.Value != "{(a, b), (b, c), (c, d)}" {
		t.Fatalf("snapshot = %+v", snap)
	}

	postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "d", "e")}})
	d := st.next(t)
	if d.Event != "delta" || len(d.Preds) != 1 || d.Preds[0].Pred != "value" ||
		!reflect.DeepEqual(d.Preds[0].Added, []string{"(d, e)"}) {
		t.Fatalf("recompute delta = %+v", d)
	}

	st.resp.Body.Close()
	waitCounter(t, s, "server.subscription.ends.client-gone", 1)
	if got := s.Stats().Snapshot()["server.subscriptions"]; got != 1 {
		t.Fatalf("subscriptions = %d", got)
	}
}
