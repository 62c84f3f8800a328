package main

// metricSpec is one metric as BENCHMARK.json lists it: better is "lower" or
// "higher", and bound — end-to-end metrics only — is the share of the old
// median by which the metric may get worse before -compare calls it
// regressed.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (m metricSpec) higher() bool { return m.Better == "higher" }

// everyWorkload names the end-to-end metrics every workload reports.
// BENCHMARK.json's end_to_end must list exactly these (loadBench), and their
// units, directions and bounds are in the file and nowhere else.
var everyWorkload = []string{"setup_s", "throughput_ops_s", "latency_class_p50_ms", "server_cpu_ms_per_op", "peak_rss_mb"}

// ungated are the end-to-end metrics BENCHMARK.json cannot list, because its
// contract wants every listed metric from every workload and never 0. They
// are measured, reported and bounded by -compare all the same.
var ungated = []metricSpec{
	// Per op across all classes; refused below 200 samples, which
	// bulk-cycle's handful of cycles never reaches.
	{"latency_p95_ms", "ms", "lower", 0.20},
	// (non-2xx + ok:false + wrong answer + subscription closed with error) /
	// attempted: 0 when all is well, so any increase regresses. The driver
	// sees it as the result line's failed and attempted.
	{"failed_share", "share", "lower", 0},
	// write-stream: mutation send to the first stream event at or past the
	// acked version, per subscription; and the reader connection's latency.
	{"delta_lag_p50_ms", "ms", "lower", 0.15},
	{"delta_lag_p95_ms", "ms", "lower", 0.25},
	{"read_after_write_p50_ms", "ms", "lower", 0.15},
	// bulk-cycle: facts / PUT wall; respawn to healthy and database listed;
	// first query after recovery; bytes under the store directory after the
	// snapshot / facts.
	{"load_facts_s", "1/s", "higher", 0.10},
	{"recovery_ms", "ms", "lower", 0.20},
	{"cold_query_ms", "ms", "lower", 0.15},
	{"disk_bytes_per_fact", "B", "lower", 0.02},
}

// aggregate says how a per-layer metric folds its per-request samples.
type aggregate int

const (
	aggMedian aggregate = iota // times: robust against a slow replay
	aggMean                    // counts per request: repeat exactly
	aggTotal                   // set once per run, or a ratio of totals
)

// layerFold is what BENCHMARK.json cannot say about a per-layer metric of
// the traced run: how its samples fold, and which end-to-end metric it
// should move on which workload (the file's entries have exactly a name, a
// unit and a direction). loadBench joins the two by name.
type layerFold struct {
	Name  string
	Agg   aggregate
	Moves string
}

// layerMetric is one per-layer metric: the file's entry and the fold.
type layerMetric struct {
	metricSpec
	Agg   aggregate
	Moves string
}

// exact reports whether the metric is a count that must repeat exactly from
// one traced run to the next: everything that is not a time, except the
// response size, which includes the digits of the service's own wallMS
// field, and intern.ids, which counts the values new to the process-global
// interner and so depends on what the process interned before.
func (m layerMetric) exact() bool {
	return m.Unit != "ms" && m.Unit != "us" && m.Name != "server.resp_bytes" && m.Name != "intern.ids"
}

// layerFolds has one entry per per_layer metric of BENCHMARK.json. Every
// traced run reports all of them; a layer the workload does not enter
// reports 0, which is the prediction "nothing moves here".
var layerFolds = []layerFold{
	// server: Handler().ServeHTTP on a recorder, an httptest loopback server, LoadDBScript.
	{"server.http_overhead_ms", aggTotal, "latency_class_p50_ms, server_cpu_ms_per_op @adhoc-point"},
	{"server.handler_ms", aggMedian, "latency_class_p50_ms @every read workload"},
	{"server.self_ms", aggTotal, "latency_class_p50_ms, server_cpu_ms_per_op @adhoc-point; ~nothing @dlog-read"},
	{"server.cache_hit_ratio", aggTotal, "latency_class_p50_ms @adhoc-point"},
	{"server.compiles", aggTotal, "server_cpu_ms_per_op @adhoc-point"},
	{"server.resp_bytes", aggMean, "server_cpu_ms_per_op @dlog-read, alg-read"},
	{"server.loadscript_ms", aggMedian, "load_facts_s @bulk-cycle; setup_s everywhere"},
	{"server.mutate_handler_ms", aggMedian, "latency_class_p50_ms @write-stream"},
	{"server.mutate_self_ms", aggTotal, "latency_class_p50_ms, delta_lag_p50_ms @write-stream"},
	{"server.sub_fanout", aggTotal, "latency_class_p50_ms @write-stream (view applies per mutation)"},
	// query: Compile, Execute, DBFacts, WriteDlogText/WriteAlgqText.
	{"query.compile_us", aggMedian, "latency_class_p50_ms @adhoc-point"},
	{"query.execute_ms", aggMedian, "latency_class_p50_ms @dlog-read, alg-read"},
	{"query.dbfacts_ms", aggMedian, "latency_class_p50_ms @dlog-read"},
	{"query.assemble_ms", aggTotal, "latency_class_p50_ms @dlog-read (execute - dbfacts - ground - semantics)"},
	{"query.render_ms", aggMedian, "server_cpu_ms_per_op @dlog-read"},
	{"query.result_facts", aggMean, "sizes the responses; moves nothing by itself"},
	// the parsers.
	{"datalog.parse_us", aggMedian, "setup_s @dlog-read (plans are cached afterwards)"},
	{"algebra.parse_us", aggMedian, "latency_class_p50_ms @adhoc-point"},
	// ground: ground.Ground on the merged program.
	{"ground.ground_ms", aggMedian, "latency_class_p50_ms, throughput_ops_s @dlog-read; nothing @alg-read"},
	{"ground.atoms", aggMean, "peak_rss_mb @dlog-read"},
	{"ground.rules", aggMean, "latency_class_p50_ms @dlog-read"},
	{"ground.rules_per_result", aggTotal, "latency_class_p50_ms @dlog-read"},
	// semantics: NewEngine, Stratified/WellFounded.
	{"semantics.engine_ms", aggMedian, "latency_class_p50_ms @dlog-read"},
	{"semantics.eval_ms", aggMedian, "latency_class_p50_ms @dlog-read, win class"},
	{"semantics.passes", aggMean, "latency_class_p50_ms @dlog-read, win class"},
	// algebra: NewEvaluator(db, b).Eval with SetCollector.
	{"algebra.eval_ms", aggMedian, "latency_class_p50_ms @alg-read; pt-* @adhoc-point; nothing @dlog-read"},
	{"algebra.ifp_rounds", aggMean, "latency_class_p50_ms @alg-read"},
	{"algebra.stream_scanned", aggMean, "latency_class_p50_ms @alg-read, adhoc-point"},
	{"algebra.stream_emitted", aggMean, "latency_class_p50_ms @alg-read"},
	{"algebra.rows_per_result", aggTotal, "latency_class_p50_ms @adhoc-point (a point query scans all of e)"},
	// core: core.EvalValid.
	{"core.evalvalid_ms", aggMedian, "latency_class_p50_ms, latency_p95_ms @alg-read (eq-win, the slow class)"},
	{"core.gamma_rounds", aggMean, "latency_class_p50_ms @alg-read"},
	{"core.evals", aggMean, "latency_class_p50_ms @alg-read"},
	{"core.skips", aggMean, "latency_class_p50_ms @alg-read"},
	// ivm: ivm.New, View.Apply.
	{"ivm.new_ms", aggTotal, "setup_s @write-stream (the four views' snapshot build)"},
	{"ivm.apply_insert_us", aggMedian, "setup_s @write-stream (insert-only warm-up batches)"},
	{"ivm.apply_churn_ms", aggMedian, "latency_class_p50_ms, delta_lag_p50_ms @write-stream"},
	{"ivm.delta_facts", aggMean, "delta_lag_p50_ms @write-stream"},
	{"ivm.views_incremental", aggTotal, "latency_class_p50_ms @write-stream (views not maintained by recompute)"},
	// storage: OpenDisk, StoreDB, LoadDB, Apply, MaterializeSet, Snapshot.
	{"storage.storedb_ms", aggMedian, "load_facts_s @bulk-cycle; setup_s @write-stream"},
	{"storage.storedb_mem_ms", aggMedian, "the memory backend's StoreDB of the same data, for the ratio"},
	{"storage.loaddb_ms", aggMedian, "cold_query_ms @bulk-cycle"},
	{"storage.apply_batch_us", aggMedian, "latency_class_p50_ms @write-stream"},
	{"storage.materialize_ms", aggMedian, "read_after_write_p50_ms @write-stream; cold_query_ms @bulk-cycle"},
	{"storage.snapshot_ms", aggMedian, "latency_class_p50_ms @bulk-cycle"},
	{"storage.open_ms", aggMedian, "recovery_ms @bulk-cycle"},
	{"storage.bytes_on_disk", aggTotal, "disk_bytes_per_fact @bulk-cycle"},
	{"storage.write_amp", aggTotal, "load_facts_s @bulk-cycle (bytes written per byte of rows)"},
	// intern: intern.Global().Intern on the loaded database, as registry.set does.
	{"intern.db_ms", aggMedian, "load_facts_s @bulk-cycle; setup_s everywhere"},
	{"intern.ids", aggTotal, "peak_rss_mb everywhere"},
}
