// Package server is the resident query service behind cmd/algrecd: an
// HTTP/JSON surface that keeps named databases in an in-memory registry and
// evaluates algebra, ifp-algebra, algebra= and datalog queries under any of
// the six semantics, concurrently, through the shared internal/query
// pipeline.
//
// The serving machinery the one-shot CLIs lack:
//
//   - a compiled-plan LRU cache keyed by (language, query text, semantics)
//     with singleflight deduplication, so identical in-flight queries
//     compile exactly once and repeated queries skip parsing entirely;
//   - per-request budgets (the engines' Budget types, field-wise overridable
//     per request) plus context-based timeouts whose cancellation is polled
//     between fixpoint rounds, so a runaway query returns a structured
//     "budget-exceeded" or "timeout" error instead of wedging a worker;
//   - incremental mutations: POST /v1/dbs/{name}/facts applies fact
//     insert/delete batches to a registered database, bumping its version;
//   - live subscriptions: POST /v1/subscribe registers a compiled query and
//     streams its result deltas (SSE or ndjson) as the database changes,
//     maintained incrementally by internal/ivm with per-subscription
//     backpressure accounting;
//   - graceful shutdown: BeginDrain makes the service refuse new work with
//     a "shutting-down" error while in-flight requests run to completion
//     and live subscriptions end with a "drain" goodbye;
//   - observability: every request emits one obsv.ServerStats event, every
//     subscription one obsv.SubscriptionStats event, and /metrics exposes
//     the server's counter snapshot.
//
// See docs/server.md for the HTTP API and the request/response schemas.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/datalog/ground"
	"algrec/internal/datalog/rel"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// Config tunes a Server. The zero value gets sensible defaults: a 128-plan
// cache, a 1 MiB body limit, a 30-second default timeout, and the engines'
// default budgets.
type Config struct {
	// CacheCap is the compiled-plan LRU capacity (0 = default 128; negative
	// disables caching, keeping only singleflight deduplication).
	CacheCap int
	// MaxBodyBytes caps the request body; larger bodies get the structured
	// "oversized-body" error (0 = default 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout applies to requests that set no timeoutMS
	// (0 = default 30s; negative = no default timeout).
	DefaultTimeout time.Duration
	// Budget and Ground are the server-side default evaluation budgets;
	// request budget fields override them field-wise when positive. Their
	// Interrupt channels are ignored — the server wires per-request
	// cancellation itself.
	Budget algebra.Budget
	Ground ground.Budget
	// MaxUndef is the default stable-search residual bound
	// (0 = query.DefaultMaxUndef).
	MaxUndef int
	// SubMaxPending caps the coalesced undelivered delta a subscription may
	// accumulate (in fact keys) before it is closed as a slow consumer
	// (0 = default 4096).
	SubMaxPending int
	// Collector receives a copy of every observability event the server
	// emits, in addition to the server's own /metrics counters.
	Collector obsv.Collector
	// Storage, when non-nil, writes every named database through to an
	// on-disk store under Storage.Dir (reads stay on the resident current
	// version); call OpenStorage before serving to recover databases
	// persisted by earlier runs, and Close on shutdown to flush them.
	Storage *StorageConfig
}

// Server is the resident query service. Create one with New, register
// databases with RegisterDB, and mount Handler on an http.Server.
type Server struct {
	cfg        Config
	cache      *planCache
	reg        *registry
	stats      *obsv.Stats
	col        obsv.Collector
	mux        *http.ServeMux
	draining   atomic.Bool
	drainCh    chan struct{} // closed by BeginDrain; ends live subscriptions
	drainOnce  sync.Once
	activeSubs atomic.Int64

	// testHookEval, when set, runs between plan lookup and evaluation —
	// test instrumentation for deterministic drain/concurrency tests.
	testHookEval func()
	// testHookSubEvent, when set, runs at the top of each subscription
	// writer iteration — test instrumentation for deterministic
	// coalescing and slow-consumer tests.
	testHookSubEvent func()
}

// New returns a Server ready to serve. Apply Config defaults here so tests
// can read the effective values back.
func New(cfg Config) *Server {
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 128
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.SubMaxPending == 0 {
		cfg.SubMaxPending = 4096
	}
	s := &Server{
		cfg:     cfg,
		cache:   newPlanCache(cfg.CacheCap),
		reg:     newRegistry(),
		stats:   obsv.NewStats(),
		drainCh: make(chan struct{}),
	}
	s.reg.storage = cfg.Storage
	s.col = obsv.Multi(s.stats, cfg.Collector)
	s.mux = http.NewServeMux()
	s.handle("POST /v1/query", "query", s.handleQuery)
	s.handle("GET /v1/dbs", "dbs", s.handleListDBs)
	s.handle("PUT /v1/dbs/{name}", "dbs", s.handlePutDB)
	s.handle("POST /v1/dbs/{name}/facts", "facts", s.handleMutateFacts)
	s.handle("POST /v1/dbs/{name}/snapshot", "snapshot", s.handleSnapshot)
	s.handle("POST /v1/dbs/{name}/restore", "restore", s.handleRestore)
	s.handle("POST /v1/subscribe", "subscribe", s.handleSubscribe)
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	return s
}

// handle registers h for pattern as the named route. Each request reports
// one obsv.ServerStats event when h returns: h fills in its outcome through
// ev, handle its route and wall time.
func (s *Server) handle(pattern, route string, h func(w http.ResponseWriter, r *http.Request, ev *obsv.ServerStats)) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ev := obsv.ServerStats{Route: route}
		defer func() {
			ev.WallNS = time.Since(start).Nanoseconds()
			s.col.Collect(ev)
		}()
		h(w, r, &ev)
	})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Collector returns the collector the server reports to: its own /metrics
// counters fanned out with Config.Collector. Install it as the process
// default (obsv.SetDefault) to surface engine-internal events — fixpoint
// rounds, grounding passes, stable searches — on /metrics too.
func (s *Server) Collector() obsv.Collector { return s.col }

// Stats returns the server's counter collector (the /metrics source).
func (s *Server) Stats() *obsv.Stats { return s.stats }

// RegisterDB registers (or replaces) a named database. With disk storage
// configured the load is written through to the database's on-disk store,
// which can fail; without it the error is always nil.
func (s *Server) RegisterDB(name string, db algebra.DB) error {
	return s.reg.set(name, db, nil)
}

// OpenStorage recovers the databases persisted under Config.Storage.Dir by
// earlier runs, returning their names. A no-op (nil, nil) without a storage
// config. Call it once, before serving.
func (s *Server) OpenStorage() ([]string, error) {
	if s.reg.storage == nil {
		return nil, nil
	}
	return s.reg.openDisk()
}

// Close flushes and closes every database's disk store (a no-op for
// memory-resident databases). Call it after the HTTP server has shut down.
func (s *Server) Close() error {
	return s.reg.closeStores()
}

// BeginDrain puts the server into draining mode: query, registration,
// mutation and subscription requests are refused with the "shutting-down"
// error while requests already past the drain check run to completion
// (http.Server.Shutdown waits for them). Live subscriptions are closed with
// a "bye" event carrying reason "drain". Draining is one-way.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Error codes of the JSON error body, beyond those of query.ErrorCode.
const (
	codeBadRequest    = "bad-request"
	codeUnknownDB     = "unknown-database"
	codeOversized     = "oversized-body"
	codeShuttingDown  = "shutting-down"
	codeTimeout       = "timeout"
	codeParseError    = "parse-error"
	codeBudgetExceed  = "budget-exceeded"
	codeCanceled      = "canceled"
	codeUnsupportedSm = "unsupported-semantics"
	codeUnknownSnap   = "unknown-snapshot"
	codeStorage       = "storage-error"
)

// httpStatus maps a structured error code to its HTTP status.
func httpStatus(code string) int {
	switch code {
	case codeBadRequest:
		return http.StatusBadRequest
	case codeUnknownDB, codeUnknownSnap:
		return http.StatusNotFound
	case codeStorage:
		return http.StatusInternalServerError
	case codeOversized:
		return http.StatusRequestEntityTooLarge
	case codeShuttingDown:
		return http.StatusServiceUnavailable
	case codeTimeout:
		return http.StatusGatewayTimeout
	case codeCanceled:
		// The nginx convention for "client closed the connection": nobody
		// is left to read the response, but logs and metrics see the code.
		return 499
	default: // parse-error, unsupported-semantics, budget-exceeded, eval-error
		return http.StatusUnprocessableEntity
	}
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	OK    bool     `json:"ok"`
	Error errorObj `json:"error"`
}

// errorObj carries the structured code and the human-readable message.
type errorObj struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeJSON writes v with the given status; encoding errors are dropped
// (the connection is gone, nothing sensible remains to do).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the structured error body for code.
func writeError(w http.ResponseWriter, code, msg string) {
	writeJSON(w, httpStatus(code), errorBody{Error: errorObj{Code: code, Message: msg}})
}

// budgetJSON is the request's budget override block; zero fields keep the
// server defaults.
type budgetJSON struct {
	MaxIFPIters int `json:"maxIFPIters"`
	MaxSetSize  int `json:"maxSetSize"`
	MaxAtoms    int `json:"maxAtoms"`
	MaxRules    int `json:"maxRules"`
}

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	DB        string      `json:"db"`
	Language  string      `json:"language"`
	Semantics string      `json:"semantics"`
	Query     string      `json:"query"`
	TimeoutMS int64       `json:"timeoutMS"`
	MaxUndef  int         `json:"maxUndef"`
	Budget    *budgetJSON `json:"budget"`
}

// handleQuery serves POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, ev *obsv.ServerStats) {
	start := time.Now()
	fail := func(code, msg string) {
		ev.Code = code
		writeError(w, code, msg)
	}
	if s.draining.Load() {
		fail(codeShuttingDown, "the server is draining and refuses new queries")
		return
	}
	var req queryRequest
	if code, msg := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); code != "" {
		fail(code, msg)
		return
	}
	lang, err := query.ParseLanguage(req.Language)
	if err != nil {
		fail(codeBadRequest, err.Error())
		return
	}
	sem, err := query.ParseSemantics(req.Semantics)
	if err != nil {
		fail(codeBadRequest, err.Error())
		return
	}
	ev.Language, ev.Semantics = string(lang), string(sem)
	if req.Query == "" {
		fail(codeBadRequest, "missing \"query\" field")
		return
	}
	ev.CacheLookup = true
	plan, hit, compiled, err := s.cache.get(cacheKey{lang: lang, sem: sem, src: req.Query})
	ev.CacheHit, ev.Compiled = hit, compiled
	if err != nil {
		fail(query.ErrorCode(err, true), err.Error())
		return
	}

	base, ok := s.reg.base(req.DB)
	if !ok {
		fail(codeUnknownDB, fmt.Sprintf("no database named %q is registered", req.DB))
		return
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opts := s.requestOptions(&req, ctx.Done())

	if s.testHookEval != nil {
		s.testHookEval()
	}
	out, err := query.ExecuteBase(plan, base, opts)
	var body []byte
	if err == nil {
		body = appendHead(make([]byte, 0, bodySize(out)), out, hit)
		body, err = appendResult(body, out, opts.Budget.Stop)
	}
	if err != nil {
		code := query.ErrorCode(err, false)
		if code == codeCanceled && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			code = codeTimeout
		}
		fail(code, err.Error())
		return
	}
	// encoding/json writes a float64 with strconv's 'f' format from 1e-6 to
	// 1e21, and a wall time in milliseconds of whole microseconds is 0 or in
	// that range.
	body = strconv.AppendFloat(append(body, `,"wallMS":`...), float64(time.Since(start).Microseconds())/1000, 'f', -1, 64)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, "}\n"...))
}

// requestOptions merges the request's budget overrides over the server
// defaults and wires interrupt — a query's request context, a subscription's
// view — into both engines' Interrupt channels (polled between fixpoint
// rounds).
func (s *Server) requestOptions(req *queryRequest, interrupt <-chan struct{}) query.Options {
	opts := query.Options{Budget: s.cfg.Budget, Ground: s.cfg.Ground, MaxUndef: s.cfg.MaxUndef}
	if req.MaxUndef > 0 {
		opts.MaxUndef = req.MaxUndef
	}
	if b := req.Budget; b != nil {
		if b.MaxIFPIters > 0 {
			opts.Budget.MaxIFPIters = b.MaxIFPIters
		}
		if b.MaxSetSize > 0 {
			opts.Budget.MaxSetSize = b.MaxSetSize
		}
		if b.MaxAtoms > 0 {
			opts.Ground.MaxAtoms = b.MaxAtoms
		}
		if b.MaxRules > 0 {
			opts.Ground.MaxRules = b.MaxRules
		}
	}
	opts.Budget.Interrupt = interrupt
	opts.Ground.Interrupt = interrupt
	return opts
}

// decodeBody decodes the request body into v under the body-size cap,
// returning a structured error code ("" on success). Numbers decode as
// json.Number, so integer fact arguments survive without a float64
// round-trip.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) (code, msg string) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return codeOversized, fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)
		}
		return codeBadRequest, "malformed JSON body: " + err.Error()
	}
	return "", ""
}

// The success body of POST /v1/query is written by hand, byte for byte what
// encoding/json writes of {"ok":true,"language":…,"semantics":…,
// "wellDefined":…,"cacheHit":…,"result":{…},"wallMS":…}: strings escaped as
// it escapes them (rel.EscapeTail), empty lists and undefined parts left out.
// A datalog predicate's facts were rendered once into the text of their JSON
// array (query.PredFacts), which the writer copies whole.

// bodySize is roughly the room a success body needs.
func bodySize(o *query.Outcome) int {
	n, models := 512, o.DatalogModels
	if o.Datalog != nil {
		models = []query.DatalogModel{*o.Datalog}
	}
	for _, m := range models {
		for _, pf := range m.Preds {
			n += len(pf.Pred) + len(pf.TrueJSON) + len(pf.UndefJSON) + 32
		}
	}
	return n
}

// appendHead appends the body's fields before its result.
func appendHead(b []byte, o *query.Outcome, hit bool) []byte {
	b = appendString(append(b, `{"ok":true,"language":`...), string(o.Language))
	b = appendString(append(b, `,"semantics":`...), string(o.Semantics))
	b = strconv.AppendBool(append(b, `,"wellDefined":`...), o.WellDefined)
	b = strconv.AppendBool(append(b, `,"cacheHit":`...), hit)
	return append(b, `,"result":`...)
}

// appendResult appends the outcome's result object. An expression's answer
// is written from the kernel's rows when it has them and escaped in place,
// polling poll (nil: never) as it is written; poll's error is the only one
// appendResult returns.
func appendResult(b []byte, o *query.Outcome, poll func() error) ([]byte, error) {
	if o.HasValue {
		from := len(b) + len(`{"value":"`)
		text, err := o.AppendValue(append(b, `{"value":"`...), poll)
		text, _ = rel.EscapeTail(text, from)
		return append(text, `"}`...), err
	}
	sep := byte('{')
	list := func(name string, n int, elem func(b []byte, i int) []byte) {
		if n > 0 {
			b = appendArray(append(append(append(b, sep, '"'), name...), `":`...), n, elem)
			sep = ','
		}
	}
	named := func(b []byte, d query.NamedSet) []byte { return appendSet(b, "name", d.Name, d.Set, d.Undef) }
	list("defs", len(o.Defs), func(b []byte, i int) []byte { return named(b, o.Defs[i]) })
	list("queries", len(o.Queries), func(b []byte, i int) []byte {
		return appendSet(b, "query", o.Queries[i].Src, o.Queries[i].Set, o.Queries[i].Undef)
	})
	list("models", len(o.Models), func(b []byte, i int) []byte {
		m := o.Models[i]
		return appendArray(b, len(m), func(b []byte, k int) []byte { return named(b, m[k]) })
	})
	list("idb", len(o.IDB), func(b []byte, i int) []byte { return appendString(b, o.IDB[i]) })
	if o.Datalog != nil {
		list("preds", len(o.Datalog.Preds), func(b []byte, i int) []byte { return appendPred(b, &o.Datalog.Preds[i]) })
	}
	list("datalogModels", len(o.DatalogModels), func(b []byte, i int) []byte {
		preds := o.DatalogModels[i].Preds
		return appendArray(b, len(preds), func(b []byte, k int) []byte { return appendPred(b, &preds[k]) })
	})
	if sep == '{' {
		b = append(b, '{')
	}
	return append(b, '}'), nil
}

// appendArray appends a JSON array of n elements, each appended by elem.
func appendArray(b []byte, n int, elem func(b []byte, i int) []byte) []byte {
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, i)
	}
	return append(b, ']')
}

// appendSet appends one named set in the algebra's literal syntax, its
// undefined part only when it has one.
func appendSet(b []byte, key, name string, set, undef value.Set) []byte {
	b = appendString(append(append(append(b, `{"`...), key...), `":`...), name)
	b = appendString(append(b, `,"set":`...), set.String())
	if !undef.IsEmpty() {
		b = appendString(append(b, `,"undef":`...), undef.String())
	}
	return append(b, '}')
}

// appendPred appends one predicate, with its true and undefined facts when
// it has any.
func appendPred(b []byte, pf *query.PredFacts) []byte {
	b = appendString(append(b, `{"pred":`...), pf.Pred)
	if pf.TrueJSON != "" {
		b = append(append(append(b, `,"true":[`...), pf.TrueJSON...), ']')
	}
	if pf.UndefJSON != "" {
		b = append(append(append(b, `,"undef":[`...), pf.UndefJSON...), ']')
	}
	return append(b, '}')
}

// appendString appends s as a JSON string.
func appendString(b []byte, s string) []byte {
	b, _ = rel.EscapeTail(append(append(b, '"'), s...), len(b)+1)
	return append(b, '"')
}

// handleListDBs serves GET /v1/dbs.
func (s *Server) handleListDBs(w http.ResponseWriter, r *http.Request, _ *obsv.ServerStats) {
	writeJSON(w, http.StatusOK, struct {
		OK  bool     `json:"ok"`
		DBs []dbInfo `json:"dbs"`
	}{OK: true, DBs: s.reg.list()})
}

// handlePutDB serves PUT /v1/dbs/{name}: the body is an algebra= script
// whose rel statements become the database's relations.
func (s *Server) handlePutDB(w http.ResponseWriter, r *http.Request, ev *obsv.ServerStats) {
	fail := func(code, msg string) {
		ev.Code = code
		writeError(w, code, msg)
	}
	if s.draining.Load() {
		fail(codeShuttingDown, "the server is draining and refuses new registrations")
		return
	}
	name := r.PathValue("name")
	// One buffer of a known length's size, and MinRead free for the EOF read.
	var src bytes.Buffer
	if n := r.ContentLength; n > 0 {
		src.Grow(int(min(n, s.cfg.MaxBodyBytes)) + bytes.MinRead)
	}
	if _, err := src.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			fail(codeOversized, fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
		} else {
			fail(codeBadRequest, err.Error())
		}
		return
	}
	// The parse reads the buffer in place: nothing it keeps shares the
	// source's bytes.
	body := src.Bytes()
	db, rels, err := readDB(unsafe.String(unsafe.SliceData(body), len(body)))
	if err != nil {
		fail(codeParseError, err.Error())
		return
	}
	if err := s.reg.set(name, db, rels); err != nil {
		fail(codeStorage, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK        bool   `json:"ok"`
		Name      string `json:"name"`
		Relations int    `json:"relations"`
	}{OK: true, Name: name, Relations: len(db)})
}

// LoadDBScript parses src as an algebra= script and returns its relation
// declarations as a database — the on-disk and over-the-wire database
// format of the service (definitions and queries are rejected: a database
// is data, not a program). It reads the script as a PUT does (readDB).
func LoadDBScript(src string) (algebra.DB, error) {
	db, _, err := readDB(src)
	return db, err
}

// readDB reads a database script straight into ID rows of the global
// interner (parse.ParseScriptRows), in the encoding the disk store keeps,
// and builds the database's sets from them as a recovery does
// (storage.MaterializeRows). A PUT hands the rows to the entry's store.
func readDB(src string) (algebra.DB, map[string]parse.Rows, error) {
	script, err := parse.ParseScriptRows(src, intern.Global())
	if err != nil {
		return nil, nil, err
	}
	if len(script.Program.Defs) > 0 || len(script.Queries) > 0 {
		return nil, nil, fmt.Errorf("server: a database script may contain only rel statements")
	}
	db := make(algebra.DB, len(script.Rows))
	for name, r := range script.Rows {
		db[name] = storage.MaterializeRows(intern.Global(), r.Arity, r.IDs, 0)
	}
	return db, script.Rows, nil
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once draining,
// so load balancers stop routing to a server that is shutting down.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ *obsv.ServerStats) {
	status, state := http.StatusOK, "serving"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, struct {
		OK     bool   `json:"ok"`
		Status string `json:"status"`
	}{OK: status == http.StatusOK, Status: state})
}

// handleMetrics serves GET /metrics: the server's counter snapshot (see
// obsv.Snapshot for the vocabulary) plus the plan cache's current size, the
// number of values the process-global interner holds, which only grows, and
// the collector's work read from runtime/metrics: GC cycles completed, the
// CPU seconds spent in GC, and the heap bytes the last cycle marked live.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ *obsv.ServerStats) {
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(gc)
	writeJSON(w, http.StatusOK, struct {
		OK           bool          `json:"ok"`
		Counters     obsv.Snapshot `json:"counters"`
		CachedPlan   int           `json:"cachedPlans"`
		ActiveSubs   int64         `json:"activeSubscriptions"`
		Interned     int           `json:"internedValues"`
		GCCycles     uint64        `json:"gcCycles"`
		GCCPUSeconds float64       `json:"gcCPUSeconds"`
		LiveHeap     uint64        `json:"liveHeapBytes"`
	}{OK: true, Counters: s.stats.Snapshot(), CachedPlan: s.cache.len(), ActiveSubs: s.activeSubs.Load(),
		Interned: intern.Global().Len(), GCCycles: gc[0].Value.Uint64(), GCCPUSeconds: gc[1].Value.Float64(),
		LiveHeap: gc[2].Value.Uint64()})
}
