package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"algrec/benchmark/gen"
	"algrec/benchmark/ref"
	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/ivm"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/semantics"
	"algrec/internal/server"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// The traced run replays a fixed sample of each workload in this process,
// one client, rung by rung through the layers' public functions: the same
// request goes over a loopback connection, into the handler on a recorder,
// into query.Compile and query.Execute, and into the engine calls Execute
// makes. Each rung is one span. The repository has no spans inside its
// calls yet, so the rungs are separate replays of the same request, and a
// layer's self time is its rung less the rungs below it.
const (
	tracedRequests = 40 // of dlog-read, alg-read and write-stream's mutations; adhoc-point has 6x
	tracedCycles   = 5  // of bulk-cycle
)

// layerLog gathers the per-layer samples of one traced run.
type layerLog struct {
	series map[string][]float64 // metric -> samples (aggMedian, aggMean)
	total  map[string]float64   // metric -> value (aggTotal)
	// rung sums the time of each rung over the whole sample, in ms, and
	// layer files those sums under the layers that own them; the share
	// table is computed from these totals, not from medians, so that a
	// layer only some classes enter is weighted by how often it ran, and
	// so that the replays' noise cancels before anything is subtracted.
	rung, layer       map[string]float64
	whole             float64 // the outermost rung's total, the shares' base
	flags             []string
	attempted, failed int
	errs              []string
}

func newLayerLog() *layerLog {
	return &layerLog{series: map[string][]float64{}, total: map[string]float64{}, rung: map[string]float64{}, layer: map[string]float64{}}
}

func (l *layerLog) add(metric string, v float64) { l.series[metric] = append(l.series[metric], v) }

func (l *layerLog) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// counted runs f and returns the counters the engines reported meanwhile.
func counted(stats *obsv.Stats, f func()) obsv.Snapshot {
	before := stats.Snapshot()
	f()
	return stats.Snapshot().Sub(before)
}

// sumPrefix adds up the counters whose name starts with prefix and ends
// with suffix (ifp.<mode>.rounds over the modes, say).
func sumPrefix(s obsv.Snapshot, prefix, suffix string) float64 {
	var n int64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return float64(n)
}

// runTraced runs the workload's traced sample and writes its spans to
// traceDir/trace-<workload>.jsonl.
func runTraced(b *bench, w *workload, cfg runConfig, traceDir string) (*runRecord, error) {
	in := w.prepare(cfg.seed, cfg.sizes)
	tr, log := newTracer(), newLayerLog()

	// The engines report to the process default collector captured when
	// they are constructed; install ours for the length of the run.
	stats := obsv.NewStats()
	prev := obsv.Default()
	obsv.SetDefault(stats)
	defer obsv.SetDefault(prev)

	var err error
	switch in := in.(type) {
	case *readInputs:
		err = tracedRead(tr, log, stats, in)
	case *writeInputs:
		err = tracedWrite(tr, log, in, cfg.tmp)
	case *bulkInputs:
		err = tracedBulk(tr, log, in, cfg.tmp)
	default:
		err = fmt.Errorf("no traced run for %T", in)
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	if err := tr.write(filepath.Join(traceDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	return log.record(b.layers, w.name, cfg.seed), nil
}

// record folds the samples into the per-layer metrics and the share table.
func (l *layerLog) record(layers []layerMetric, workload string, seed uint64) *runRecord {
	rec := &runRecord{
		Workload: workload, Seed: seed, Traced: true,
		Attempted: l.attempted, Failed: l.failed, Correct: l.failed == 0 && l.attempted > 0,
		Errors: append(l.errs, l.flags...), Metrics: map[string]reading{}, Shares: map[string]float64{},
	}
	for _, m := range layers {
		v := reading{Unit: m.Unit}
		switch s := l.series[m.Name]; {
		case m.Agg == aggTotal:
			v.Value = l.total[m.Name]
		case len(s) == 0:
		case m.Agg == aggMedian:
			v.Value, v.Samples = median(s), len(s)
		default:
			for _, x := range s {
				v.Value += x
			}
			v.Value, v.Samples = v.Value/float64(len(s)), len(s)
		}
		rec.Metrics[m.Name] = v
	}
	if l.whole > 0 {
		for name, t := range l.layer {
			rec.Shares[name] = t / l.whole
		}
	}
	return rec
}

// attribute files the outermost rung's total under the layers: below is
// what the rungs beneath it account for, per layer, and the remainder is the
// outermost layer's own time — 0, and flagged, if the replays beneath sum to
// more than the rung itself.
func (l *layerLog) attribute(self string, whole float64, below map[string]float64) {
	var sum float64
	for name, t := range below {
		l.layer[name] = t
		sum += t
	}
	rest, clamped := selfTime(whole, sum)
	if clamped {
		l.flags = append(l.flags, fmt.Sprintf("share table: the rungs below sum to %.1f ms, more than the %.1f ms of the outermost rung; %s printed as 0", sum, whole, self))
	}
	l.layer[self], l.whole = rest, whole
}

// derive sets an aggTotal metric to parent - children over the medians of
// the named series, flagging a negative difference.
func (l *layerLog) derive(metric, parent string, children ...string) {
	med := func(name string) float64 {
		if s := l.series[name]; len(s) > 0 {
			return median(s)
		}
		return 0
	}
	kids := make([]float64, len(children))
	for i, c := range children {
		kids[i] = med(c)
	}
	self, clamped := selfTime(med(parent), kids...)
	if clamped {
		l.flags = append(l.flags, fmt.Sprintf("%s: median(%s) less the medians of %v is negative, printed as 0", metric, parent, children))
	}
	l.total[metric] = self
}

// sortedKeys returns the keys of m in order, so runs visit databases alike.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadDB replays what PUT /v1/dbs/{name} does to a script before the
// registry takes it: parse, then intern every set.
func loadDB(tr *tracer, log *layerLog, script string) (algebra.DB, float64, float64, error) {
	var (
		db  algebra.DB
		err error
	)
	_, dParse := tr.time(0, 0, "server.LoadDBScript", func() { db, err = server.LoadDBScript(script) })
	if err != nil {
		return nil, 0, 0, err
	}
	in := intern.Global()
	ids := in.Len()
	_, dIntern := tr.time(0, 0, "intern.Intern", func() {
		for _, set := range db {
			in.Intern(set)
		}
	})
	log.total["intern.ids"] += float64(in.Len() - ids)
	return db, ms(dParse), ms(dIntern), nil
}

// serve sends a request into the handler on a recorder.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	// Room for the largest response, so that the rung does not time the
	// recorder's buffer doubling its way up to it.
	rec.Body = bytes.NewBuffer(make([]byte, 0, 1<<20))
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// okBody is the success check of conn.call for a recorded response.
func okBody(rec *httptest.ResponseRecorder) ([]byte, error) {
	body := rec.Body.Bytes()
	if rec.Code/100 != 2 || !bytes.HasPrefix(body, okPrefix) {
		return nil, fmt.Errorf("HTTP %d: %.200s", rec.Code, body)
	}
	return body, nil
}

// ---- read workloads ----

func tracedRead(tr *tracer, log *layerLog, stats *obsv.Stats, in *readInputs) error {
	// Two servers fed the same request sequence, one per outer rung, so
	// that a request meets the same plan-cache state on both.
	onRecorder := server.New(server.Config{MaxBodyBytes: maxBody})
	onLoopback := server.New(server.Config{MaxBodyBytes: maxBody})
	dbs := map[string]algebra.DB{}
	var parseMS, internMS float64
	for _, name := range sortedKeys(in.dbs) {
		db, p, i, err := loadDB(tr, log, in.dbs[name])
		if err != nil {
			return err
		}
		parseMS, internMS = parseMS+p, internMS+i
		dbs[name] = db
		for _, srv := range []*server.Server{onRecorder, onLoopback} {
			if err := srv.RegisterDB(name, db); err != nil {
				return err
			}
		}
	}
	log.add("server.loadscript_ms", parseMS)
	log.add("intern.db_ms", internMS)

	hs := httptest.NewServer(onLoopback.Handler())
	defer hs.Close()
	c := newConn(hs.URL)
	defer c.close()

	for _, r := range in.warm {
		body := queryBody(r.c.db, r.c.lang, r.c.sem, r.c.text(r.k))
		if _, err := okBody(serve(onRecorder.Handler(), http.MethodPost, "/v1/query", body)); err != nil {
			return fmt.Errorf("warm-up %s: %w", r.c.name, err)
		}
		if _, _, err := c.call(http.MethodPost, "/v1/query", body); err != nil {
			return fmt.Errorf("warm-up %s: %w", r.c.name, err)
		}
	}
	compiles := onRecorder.Stats().Snapshot()["server.compiles"]

	var hits, datalogRules, datalogFacts, scanned, algebraFacts float64
	next := in.stream()
	for req := 1; req <= in.traced; req++ {
		r := next()
		log.attempted++
		text := r.c.text(r.k)
		body := queryBody(r.c.db, r.c.lang, r.c.sem, text)
		want := r.c.want(r.k)
		var facts float64
		for _, s := range want {
			facts += float64(s.N)
		}
		log.add("query.result_facts", facts)

		// Rung 4: loopback HTTP.
		var resp []byte
		var err error
		loopID, dLoop := tr.time(req, 0, "loopback", func() { resp, _, err = c.call(http.MethodPost, "/v1/query", body) })
		if err == nil {
			err = checkAnswer(r.c.name+" over loopback", resp, want)
		}
		if err != nil {
			log.fail(err)
			continue
		}
		log.add("server.resp_bytes", float64(len(resp)))

		// Rung 3: the handler on a recorder.
		var rec *httptest.ResponseRecorder
		handlerID, dHandler := tr.time(req, loopID, "server.Handler.ServeHTTP", func() {
			rec = serve(onRecorder.Handler(), http.MethodPost, "/v1/query", body)
		})
		resp, err = okBody(rec)
		if err == nil {
			err = checkAnswer(r.c.name+" on the recorder", resp, want)
		}
		if err != nil {
			log.fail(err)
			continue
		}
		var flags struct {
			CacheHit bool `json:"cacheHit"`
		}
		if err := json.Unmarshal(resp, &flags); err != nil {
			log.fail(err)
			continue
		}
		log.add("loopback_ms", ms(dLoop))
		log.add("server.handler_ms", ms(dHandler))
		log.rung["handler"] += ms(dHandler)

		// Rung 2: query.Compile and query.Execute.
		lang, err1 := query.ParseLanguage(r.c.lang)
		sem, err2 := query.ParseSemantics(r.c.sem)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("class %s: %v %v", r.c.name, err1, err2)
		}
		var plan *query.Plan
		compileID, dCompile := tr.time(req, handlerID, "query.Compile", func() { plan, err = query.Compile(lang, sem, text) })
		if err != nil {
			return err
		}
		log.add("query.compile_us", float64(dCompile.Microseconds()))
		compileOnMiss := ms(dCompile)
		if flags.CacheHit {
			hits++
			compileOnMiss = 0
		}
		log.add("compile_on_miss_ms", compileOnMiss)
		switch lang {
		case query.LangDatalog:
			_, d := tr.time(req, compileID, "datalog.ParseProgram", func() { _, err = datalog.ParseProgram(text) })
			log.add("datalog.parse_us", float64(d.Microseconds()))
		case query.LangAlgebraEq:
			_, d := tr.time(req, compileID, "parse.ParseScript", func() { _, err = parse.ParseScript(text) })
			log.add("algebra.parse_us", float64(d.Microseconds()))
		default:
			_, d := tr.time(req, compileID, "parse.ParseExpr", func() { _, err = parse.ParseExpr(text) })
			log.add("algebra.parse_us", float64(d.Microseconds()))
		}
		if err != nil {
			return err
		}
		db := dbs[r.c.db]
		var out *query.Outcome
		execID, dExec := tr.time(req, handlerID, "query.Execute", func() { out, err = query.Execute(plan, db, query.Options{}) })
		if err != nil {
			return err
		}
		log.add("query.execute_ms", ms(dExec))

		// Rung 1: the engine calls Execute makes for this language.
		log.rung["compile"] += compileOnMiss
		log.rung["execute"] += ms(dExec)
		switch lang {
		case query.LangDatalog:
			g, err := tracedDatalog(tr, log, stats, req, execID, plan, db)
			if err != nil {
				return err
			}
			datalogRules += g.rules
			datalogFacts += facts
			log.rung["dbfacts"] += g.dbfactsMS
			log.rung["ground"] += g.groundMS
			log.rung["semantics"] += g.semanticsMS
		case query.LangAlgebraEq:
			merged := algebra.DB{}
			for k, v := range db {
				merged[k] = v
			}
			for k, v := range plan.Script.DB {
				merged[k] = v
			}
			var d time.Duration
			counts := counted(stats, func() {
				_, d = tr.time(req, execID, "core.EvalValid", func() { _, err = core.EvalValid(plan.Script.Program, merged, algebra.Budget{}) })
			})
			if err != nil {
				return err
			}
			log.add("core.evalvalid_ms", ms(d))
			log.add("core.gamma_rounds", float64(counts["core.valid.rounds"]))
			log.add("core.evals", float64(counts["core.valid.evals"]))
			log.add("core.skips", float64(counts["core.valid.skips"]))
			log.rung["core"] += ms(d)
		default:
			ev := algebra.NewEvaluator(db, algebra.Budget{})
			ev.SetCollector(stats)
			var d time.Duration
			counts := counted(stats, func() {
				_, d = tr.time(req, execID, "algebra.Evaluator.Eval", func() { _, err = ev.Eval(plan.Expr) })
			})
			if err != nil {
				return err
			}
			log.add("algebra.eval_ms", ms(d))
			log.add("algebra.ifp_rounds", sumPrefix(counts, "ifp.", ".rounds"))
			log.add("algebra.stream_scanned", float64(counts["stream.scanned"]))
			log.add("algebra.stream_emitted", float64(counts["stream.emitted"]))
			scanned += float64(counts["stream.scanned"])
			algebraFacts += facts
			log.rung["algebra"] += ms(d)
		}

		// The CLI renderers stand in for the handler's private one: both
		// print every set and fact of the outcome.
		_, dRender := tr.time(req, handlerID, "query.Write*Text", func() {
			if lang == query.LangDatalog {
				query.WriteDlogText(io.Discard, out, "", true)
			} else {
				query.WriteAlgqText(io.Discard, out, true)
			}
		})
		log.add("query.render_ms", ms(dRender))
	}

	// Execute's own time (merging the database into the program, assembling
	// the outcome) is what the engine rungs leave of it; it and compilation
	// are the query layer's. The handler's own is what both leave of it.
	r := log.rung
	engines := r["ground"] + r["semantics"] + r["algebra"] + r["core"]
	executeSelf, clamped := selfTime(r["execute"], r["dbfacts"], engines)
	if clamped {
		log.flags = append(log.flags, "share table: the engine rungs sum to more than query.Execute; its own time printed as 0")
	}
	log.attribute("server", r["handler"], map[string]float64{
		"query":     r["compile"] + r["dbfacts"] + executeSelf,
		"ground":    r["ground"],
		"semantics": r["semantics"],
		"algebra":   r["algebra"],
		"core":      r["core"],
	})

	n := float64(log.attempted - log.failed)
	if n > 0 {
		log.total["server.cache_hit_ratio"] = hits / n
	}
	log.total["server.compiles"] = float64(onRecorder.Stats().Snapshot()["server.compiles"] - compiles)
	log.derive("server.http_overhead_ms", "loopback_ms", "server.handler_ms")
	log.derive("server.self_ms", "server.handler_ms", "compile_on_miss_ms", "query.execute_ms")
	if len(log.series["ground.ground_ms"]) > 0 {
		log.derive("query.assemble_ms", "query.execute_ms", "query.dbfacts_ms", "ground.ground_ms", "semantics.engine_ms", "semantics.eval_ms")
	}
	if datalogFacts > 0 {
		log.total["ground.rules_per_result"] = datalogRules / datalogFacts
	}
	if algebraFacts > 0 {
		log.total["algebra.rows_per_result"] = scanned / algebraFacts
	}
	return nil
}

// datalogRungs is what one replay of executeDatalog's steps measured.
type datalogRungs struct {
	dbfactsMS, groundMS, semanticsMS, rules float64
}

// tracedDatalog replays the steps query.Execute takes for a datalog plan:
// fold the database into the program's facts, ground, build the engine,
// evaluate under the plan's semantics.
func tracedDatalog(tr *tracer, log *layerLog, stats *obsv.Stats, req, parent int, plan *query.Plan, db algebra.DB) (datalogRungs, error) {
	var (
		out   datalogRungs
		facts []datalog.Fact
		g     *ground.Program
		e     *semantics.Engine
		err   error
	)
	_, d := tr.time(req, parent, "query.DBFacts", func() { facts = query.DBFacts(db) })
	out.dbfactsMS = ms(d)
	log.add("query.dbfacts_ms", out.dbfactsMS)
	prog := &datalog.Program{Rules: append([]datalog.Rule{}, plan.Program.Rules...)}
	prog.AddFacts(facts...)

	counts := counted(stats, func() {
		_, d = tr.time(req, parent, "ground.Ground", func() { g, err = ground.Ground(prog, ground.Budget{}) })
	})
	if err != nil {
		return out, err
	}
	out.groundMS, out.rules = ms(d), float64(counts["ground.rules"])
	log.add("ground.ground_ms", out.groundMS)
	log.add("ground.atoms", float64(counts["ground.atoms"]))
	log.add("ground.rules", out.rules)

	_, d = tr.time(req, parent, "semantics.NewEngine", func() { e = semantics.NewEngine(g) })
	log.add("semantics.engine_ms", ms(d))
	out.semanticsMS = ms(d)
	counts = counted(stats, func() {
		_, d = tr.time(req, parent, "semantics.Engine."+string(plan.Semantics), func() {
			switch plan.Semantics {
			case query.SemStratified:
				var strat map[string]int
				if strat, err = datalog.Stratify(prog); err == nil {
					_, err = e.Stratified(strat)
				}
			case query.SemWellFounded:
				e.WellFounded()
			default:
				err = fmt.Errorf("the benchmark issues no datalog query under %s", plan.Semantics)
			}
		})
	})
	if err != nil {
		return out, err
	}
	log.add("semantics.eval_ms", ms(d))
	log.add("semantics.passes", sumPrefix(counts, "fixpoint.", ".passes"))
	out.semanticsMS += ms(d)
	return out, nil
}

// ---- write-stream ----

func edgeFacts(edges []gen.Edge) []datalog.Fact {
	out := make([]datalog.Fact, len(edges))
	for i, e := range edges {
		out[i] = datalog.Fact{Pred: "e", Args: []value.Value{value.Int(e.From), value.Int(e.To)}}
	}
	return out
}

func edgeRows(in *intern.Interner, edges []gen.Edge) [][]intern.ID {
	out := make([][]intern.ID, len(edges))
	for i, e := range edges {
		out[i] = []intern.ID{in.InternInt(int64(e.From)), in.InternInt(int64(e.To))}
	}
	return out
}

func tracedWrite(tr *tracer, log *layerLog, in *writeInputs, tmp string) error {
	dir, release, err := tempDir(tmp, "traced-write-*")
	if err != nil {
		return err
	}
	defer release()
	db, parseMS, internMS, err := loadDB(tr, log, in.script)
	if err != nil {
		return err
	}
	log.add("server.loadscript_ms", parseMS)
	log.add("intern.db_ms", internMS)
	interner := intern.Global()

	// The service, disk-backed, with the four subscriptions live.
	srv := server.New(server.Config{MaxBodyBytes: maxBody, Storage: &server.StorageConfig{Dir: filepath.Join(dir, "served")}})
	if _, err := srv.OpenStorage(); err != nil {
		return err
	}
	if err := srv.RegisterDB("h10k", db); err != nil {
		return err
	}
	hs := httptest.NewServer(srv.Handler())
	var subs []*subscription
	defer func() {
		for _, s := range subs {
			s.close()
		}
		hs.Close()
		_ = srv.Close()
	}()
	for _, v := range in.views {
		sub, err := subscribe(hs.URL, v.name, queryBody("h10k", "datalog", "stratified", v.text))
		if err != nil {
			return err
		}
		subs = append(subs, sub)
	}
	log.total["server.sub_fanout"] = float64(len(subs))

	// The layers below it, held directly: four views and a store.
	var views []*ivm.View
	for _, v := range in.views {
		plan, err := query.Compile(query.LangDatalog, query.SemStratified, v.text)
		if err != nil {
			return err
		}
		var view *ivm.View
		_, d := tr.time(0, 0, "ivm.New", func() { view, err = ivm.New(plan, db, query.Options{}) })
		if err != nil {
			return err
		}
		log.total["ivm.new_ms"] += ms(d)
		if view.Mode() == ivm.ModeIncremental {
			log.total["ivm.views_incremental"]++
		}
		views = append(views, view)
	}
	var st *storage.DiskStore
	_, d := tr.time(0, 0, "storage.OpenDisk+StoreDB", func() {
		if st, err = storage.OpenDisk(filepath.Join(dir, "direct"), storage.DiskOptions{}); err == nil {
			err = storage.StoreDB(st, interner, db)
		}
	})
	if err != nil {
		return err
	}
	defer st.Close()
	log.add("storage.storedb_ms", ms(d))
	_, d = tr.time(0, 0, "storage.StoreDB(mem)", func() { err = storage.StoreDB(storage.NewMem(interner), interner, db) })
	if err != nil {
		return err
	}
	log.add("storage.storedb_mem_ms", ms(d))

	sched := gen.NewSchedule(gen.New(in.seed, "write-schedule"), in.h.Nodes)
	points := gen.New(in.seed, "write-reads")
	g := refGraph(in.h)
	var last uint64
	for req := 1; req <= tracedRequests; req++ {
		b := sched.Next()
		log.attempted++
		body := factsBody(b)
		var rec *httptest.ResponseRecorder
		handlerID, dHandler := tr.time(req, 0, "server.Handler.ServeHTTP facts", func() {
			rec = serve(srv.Handler(), http.MethodPost, "/v1/dbs/h10k/facts", body)
		})
		ack, err := okBody(rec)
		if err == nil {
			last, err = versionOf(ack)
		}
		if err != nil {
			log.fail(err)
			continue
		}
		applyBatch(g, b)

		ins, del := edgeFacts(b.Insert), edgeFacts(b.Delete)
		var applyMS, deltaFacts float64
		for i, view := range views {
			var delta *ivm.ResultDelta
			_, d := tr.time(req, handlerID, "ivm.View.Apply "+in.views[i].name, func() { delta, err = view.Apply(ins, del) })
			if err != nil {
				return err
			}
			applyMS += ms(d)
			for _, p := range delta.Preds {
				deltaFacts += float64(len(p.Added) + len(p.Removed))
			}
		}
		log.add("ivm.delta_facts", deltaFacts)
		batch := storage.Batch{{Rel: "e", Arity: 2, Delete: edgeRows(interner, b.Delete), Insert: edgeRows(interner, b.Insert)}}
		_, dStore := tr.time(req, handlerID, "storage.Store.Apply", func() { err = st.Apply(batch) })
		if err != nil {
			return err
		}
		log.add("storage.apply_batch_us", float64(dStore.Microseconds()))

		// Only the steady-state batches, which delete as well as insert,
		// stand for the measured op; the first ChurnLag are the warm-up's.
		if len(b.Delete) == 0 {
			log.add("ivm.apply_insert_us", applyMS*1000)
			continue
		}
		log.add("ivm.apply_churn_ms", applyMS)
		log.add("server.mutate_handler_ms", ms(dHandler))
		log.add("storage_apply_ms", ms(dStore))
		log.rung["handler"] += ms(dHandler)
		log.rung["ivm"] += applyMS
		log.rung["storage"] += ms(dStore)

		// The reader's side of the same moment: e must be materialized
		// again, which a point query pays for.
		rel, ok, err := st.Rel("e")
		if err != nil || !ok {
			return fmt.Errorf("relation e: present %v, %v", ok, err)
		}
		_, d := tr.time(req, 0, "storage.MaterializeSet", func() { _, err = storage.MaterializeSet(interner, rel, 0) })
		if err != nil {
			return err
		}
		log.add("storage.materialize_ms", ms(d))
		k := points.Intn(in.h.Nodes / 2)
		log.attempted++
		_, d = tr.time(req, 0, "server.Handler.ServeHTTP query", func() {
			rec = serve(srv.Handler(), http.MethodPost, "/v1/query", queryBody("h10k", "ifp-algebra", "", fmt.Sprintf(textPointOut, k)))
		})
		resp, err := okBody(rec)
		if err == nil {
			err = checkAnswer("read-after-write", resp, in.base.PointOut(k))
		}
		if err != nil {
			log.fail(err)
			continue
		}
		log.add("server.handler_ms", ms(d))
	}
	log.attribute("server", log.rung["handler"], map[string]float64{"ivm": log.rung["ivm"], "storage": log.rung["storage"]})
	log.derive("server.mutate_self_ms", "server.mutate_handler_ms", "ivm.apply_churn_ms", "storage_apply_ms")

	// Maintained view == reference, for the streams and for the views held
	// directly.
	for i, v := range in.views {
		log.attempted++
		want := v.want(g)
		for wait := time.Now().Add(10 * time.Second); subs[i].version() < last && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		if got := subs[i].answer(); !got.Equal(want) {
			log.fail(fmt.Errorf("view %s: maintained view %v, reference %v", v.name, got, want))
			continue
		}
		out, err := views[i].Outcome()
		if err != nil {
			log.fail(err)
			continue
		}
		got := ref.Answer{}
		for _, p := range out.Datalog.Preds {
			for _, f := range p.True {
				got.Add(p.Pred, f)
			}
		}
		if !got.Equal(want) {
			log.fail(fmt.Errorf("view %s: ivm.View outcome %v, reference %v", v.name, got, want))
		}
	}
	return nil
}

// ---- bulk-cycle ----

func tracedBulk(tr *tracer, log *layerLog, in *bulkInputs, tmp string) error {
	dir, release, err := tempDir(tmp, "traced-bulk-*")
	if err != nil {
		return err
	}
	defer release()
	interner := intern.Global()
	points := gen.New(in.seed, "bulk-points")
	rowBytes := float64(len(in.b.Edges)) * 2 * 4 // two uint32 IDs per fact

	served := filepath.Join(dir, "served")
	newServer := func() (*server.Server, time.Duration, error) {
		srv := server.New(server.Config{MaxBodyBytes: maxBody, Storage: &server.StorageConfig{Dir: served}})
		start := time.Now()
		_, err := srv.OpenStorage()
		return srv, time.Since(start), err
	}
	srv, _, err := newServer()
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	pointQuery := func(req int, srv *server.Server) (time.Duration, error) {
		k := points.Intn(in.b.Nodes)
		var rec *httptest.ResponseRecorder
		_, d := tr.time(req, 0, "server.Handler.ServeHTTP query", func() {
			rec = serve(srv.Handler(), http.MethodPost, "/v1/query", queryBody("b", "ifp-algebra", "", fmt.Sprintf(textPointOut, k)))
		})
		resp, err := okBody(rec)
		if err == nil {
			err = checkAnswer("pt-out", resp, in.g.PointOut(k))
		}
		return d, err
	}

	for req := 1; req <= tracedCycles; req++ {
		log.attempted++
		// The cycle through the handler: the whole op, in process.
		var rec *httptest.ResponseRecorder
		_, dPut := tr.time(req, 0, "server.Handler.ServeHTTP put", func() {
			rec = serve(srv.Handler(), http.MethodPut, "/v1/dbs/b", []byte(in.script))
		})
		if _, err := okBody(rec); err != nil {
			log.fail(err)
			continue
		}
		dCold, err := pointQuery(req, srv)
		if err != nil {
			log.fail(err)
			continue
		}
		_, dSnap := tr.time(req, 0, "server.Handler.ServeHTTP snapshot", func() {
			rec = serve(srv.Handler(), http.MethodPost, "/v1/dbs/b/snapshot", []byte(`{"snapshot":"cycle"}`))
		})
		if _, err := okBody(rec); err != nil {
			log.fail(err)
			continue
		}
		if err := srv.Close(); err != nil {
			return err
		}
		var dOpen time.Duration
		if srv, dOpen, err = newServer(); err != nil {
			return err
		}
		dAfter, err := pointQuery(req, srv)
		if err != nil {
			log.fail(err)
			continue
		}
		whole := ms(dPut + dCold + dSnap + dOpen + dAfter)
		log.add("server.handler_ms", whole)
		log.rung["handler"] += whole

		// The same steps through the layers' own calls, on a second
		// directory.
		direct := filepath.Join(dir, fmt.Sprintf("direct-%d", req))
		db, parseMS, internMS, err := loadDB(tr, log, in.script)
		if err != nil {
			return err
		}
		log.add("server.loadscript_ms", parseMS)
		log.add("intern.db_ms", internMS)
		var st *storage.DiskStore
		_, dStore := tr.time(req, 0, "storage.OpenDisk+StoreDB", func() {
			if st, err = storage.OpenDisk(direct, storage.DiskOptions{}); err == nil {
				err = storage.StoreDB(st, interner, db)
			}
		})
		if err != nil {
			return err
		}
		log.add("storage.storedb_ms", ms(dStore))
		_, d := tr.time(req, 0, "storage.StoreDB(mem)", func() { err = storage.StoreDB(storage.NewMem(interner), interner, db) })
		if err != nil {
			return err
		}
		log.add("storage.storedb_mem_ms", ms(d))
		materialize := func() (time.Duration, error) {
			rel, ok, err := st.Rel("e")
			if err != nil || !ok {
				return 0, fmt.Errorf("relation e: present %v, %v", ok, err)
			}
			_, d := tr.time(req, 0, "storage.MaterializeSet", func() { _, err = storage.MaterializeSet(interner, rel, 0) })
			log.add("storage.materialize_ms", ms(d))
			return d, err
		}
		dMat1, err := materialize()
		if err != nil {
			return err
		}
		logged, err := dirBytes(direct)
		if err != nil {
			return err
		}
		_, dCheckpoint := tr.time(req, 0, "storage.Store.Snapshot", func() { err = st.Snapshot() })
		if err != nil {
			return err
		}
		log.add("storage.snapshot_ms", ms(dCheckpoint))
		kept, err := dirBytes(direct)
		if err != nil {
			return err
		}
		log.total["storage.bytes_on_disk"] = float64(kept)
		log.total["storage.write_amp"] = float64(logged+kept) / rowBytes
		if err := st.Close(); err != nil {
			return err
		}
		_, dReopen := tr.time(req, 0, "storage.OpenDisk", func() { st, err = storage.OpenDisk(direct, storage.DiskOptions{}) })
		if err != nil {
			return err
		}
		log.add("storage.open_ms", ms(dReopen))
		_, d = tr.time(req, 0, "storage.LoadDB", func() { _, err = storage.LoadDB(st, interner, 0) })
		if err != nil {
			return err
		}
		log.add("storage.loaddb_ms", ms(d))
		if err := st.Close(); err != nil {
			return err
		}
		// A cycle materializes e twice: the cold query and the one after
		// recovery; LoadDB above measured the second.
		log.rung["algebra/parse"] += parseMS
		log.rung["intern"] += internMS
		log.rung["storage"] += ms(dStore+dMat1+dCheckpoint+dReopen) + ms(d)
	}
	log.attribute("server", log.rung["handler"], map[string]float64{
		"algebra/parse": log.rung["algebra/parse"], "intern": log.rung["intern"], "storage": log.rung["storage"],
	})
	return nil
}
