package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"algrec/benchmark/gen"
	"algrec/benchmark/ref"
)

// workload is one of the five traffic shapes. prepare generates the inputs
// from the seed, outside every timed interval.
type workload struct {
	name    string
	why     string // BENCHMARK.json's one line on why it was chosen
	disk    bool
	prepare func(seed uint64, z gen.Sizes) inputs
}

// inputs is what a workload generated from the seed.
type inputs interface {
	// open sets a fresh target up for measuring: data load plus warm-up.
	// dir is the target's store directory ("" when memory-backed).
	open(t target, dir string) (session, error)
}

// session is a loaded, warm service ready to be measured.
type session interface {
	// measure issues ops in a closed loop until the window has passed and
	// every op in flight has completed.
	measure(window time.Duration) *opLog
	// finish runs the checks that need the traffic to have stopped.
	finish(log *opLog)
	close()
}

// opLog is what one measured window recorded.
type opLog struct {
	attempted, failed int
	errs              []string             // the first few failures, for the report
	lat               []float64            // ms, per correct op
	byClass           map[string][]float64 // ms, per correct op of each class
	extra             map[string][]float64 // workload-specific series by metric stem
	elapsed           time.Duration
}

func newOpLog() *opLog {
	return &opLog{byClass: map[string][]float64{}, extra: map[string][]float64{}}
}

func (l *opLog) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// ok records one correct op of a class.
func (l *opLog) ok(class string, lat time.Duration) {
	l.lat = append(l.lat, ms(lat))
	l.byClass[class] = append(l.byClass[class], ms(lat))
}

func (l *opLog) merge(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < 5 {
			l.errs = append(l.errs, e)
		}
	}
	l.lat = append(l.lat, o.lat...)
	for k, v := range o.byClass {
		l.byClass[k] = append(l.byClass[k], v...)
	}
	for k, v := range o.extra {
		l.extra[k] = append(l.extra[k], v...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// requestConns is the number of request-issuing connections of the read
// workloads: min(nproc, 2). The sandbox has two cores, which the service
// shares with this generator; more clients would only queue.
const requestConns = 2

// refGraph turns a generated graph into the reference package's form.
func refGraph(g *gen.Graph) *ref.Graph {
	edges := make([][2]int, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = [2]int{e.From, e.To}
	}
	return ref.NewGraph(g.Nodes, edges)
}

// putDB loads a data set through PUT /v1/dbs/{name}.
func putDB(c *conn, name, script string) (time.Duration, error) {
	_, lat, err := c.call(http.MethodPut, "/v1/dbs/"+name, []byte(script))
	return lat, err
}

// ---- read workloads: dlog-read, alg-read, adhoc-point ----

// class is one family of query texts. A fixed class has one text; a
// parameterised class has one per constant.
type class struct {
	name          string
	db, lang, sem string
	param         bool
	text          func(k int) string
	want          func(k int) ref.Answer
}

func fixedClass(name, db, lang, sem, text string, want ref.Answer) *class {
	return &class{name: name, db: db, lang: lang, sem: sem,
		text: func(int) string { return text },
		want: func(int) ref.Answer { return want }}
}

// request is one op of a read workload.
type request struct {
	c *class
	k int
}

// readInputs is everything a read workload generated from the seed.
type readInputs struct {
	dbs map[string]string // database name -> script
	// stream returns the request sequence, the same one on every call.
	stream func() func() request
	// warm lists the requests issued before measuring.
	warm []request
	// traced is the size of the traced run's sample.
	traced int
}

// readSession is a read workload on one warm target.
type readSession struct {
	in    *readInputs
	conns []*conn

	mu       sync.Mutex
	next     func() request
	verified map[*class]int // body length of the class's verified response
}

func (in *readInputs) open(t target, _ string) (session, error) {
	s := &readSession{in: in, next: in.stream(), verified: map[*class]int{}}
	for i := 0; i < requestConns; i++ {
		s.conns = append(s.conns, newConn(t.URL()))
	}
	for name, script := range in.dbs {
		if _, err := putDB(s.conns[0], name, script); err != nil {
			s.close()
			return nil, err
		}
	}
	for _, r := range in.warm {
		if _, err := s.issue(s.conns[0], r); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", r.c.name, err)
		}
	}
	return s, nil
}

// issue sends one query and checks the response: every response of a
// parameterised class, and the first of a fixed class, against the
// reference answer; a repeat of a fixed class by its length.
func (s *readSession) issue(c *conn, r request) (time.Duration, error) {
	resp, lat, err := c.call(http.MethodPost, "/v1/query", queryBody(r.c.db, r.c.lang, r.c.sem, r.c.text(r.k)))
	if err != nil {
		return lat, err
	}
	if !r.c.param {
		s.mu.Lock()
		n := s.verified[r.c]
		s.mu.Unlock()
		if n > 0 {
			if d := len(resp) - n; d > lengthSlack || d < -lengthSlack {
				return lat, fmt.Errorf("%s: response of %d bytes, the verified one had %d", r.c.name, len(resp), n)
			}
			return lat, nil
		}
	}
	if err := checkAnswer(r.c.name, resp, r.c.want(r.k)); err != nil {
		return lat, err
	}
	if !r.c.param {
		s.mu.Lock()
		s.verified[r.c] = len(resp)
		s.mu.Unlock()
	}
	return lat, nil
}

func (s *readSession) measure(window time.Duration) *opLog {
	logs := make([]*opLog, len(s.conns))
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i, c := range s.conns {
		logs[i] = newOpLog()
		wg.Add(1)
		go func(c *conn, l *opLog) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s.mu.Lock()
				r := s.next()
				s.mu.Unlock()
				l.attempted++
				lat, err := s.issue(c, r)
				if err != nil {
					l.fail(err)
					continue
				}
				l.ok(r.c.name, lat)
			}
		}(c, logs[i])
	}
	wg.Wait()
	total := newOpLog()
	total.elapsed = time.Since(start)
	for _, l := range logs {
		total.merge(l)
	}
	return total
}

func (s *readSession) finish(*opLog) {}

func (s *readSession) close() {
	for _, c := range s.conns {
		c.close()
	}
}

// deckStream deals the fixed classes in seeded shuffles.
func deckStream(seed uint64, sub string, classes []*class) func() func() request {
	return func() func() request {
		d := gen.NewDeck(gen.New(seed, sub), len(classes))
		return func() request { return request{c: classes[d.Next()]} }
	}
}

// twice lists every class two times: the first response of each is verified
// against the reference, the second finds the plan cached.
func twice(classes []*class) []request {
	var out []request
	for round := 0; round < 2; round++ {
		for _, c := range classes {
			out = append(out, request{c: c})
		}
	}
	return out
}

func dlogReadInputs(seed uint64, z gen.Sizes) *readInputs {
	g := gen.RandomDigraph(gen.New(seed, "g20k"), z.GNodes, z.GEdges)
	src := g.Sources(gen.New(seed, "dlog-read"), 3)
	rg := refGraph(g)
	classes := []*class{
		fixedClass("reach", "g20k", "datalog", "stratified",
			fmt.Sprintf("r(X) :- e(%d,X). r(Y) :- r(X), e(X,Y). far(X) :- e(X,Y), not r(X).", src[0]),
			rg.DlogReach(src[0], true)),
		fixedClass("win", "g20k", "datalog", "wellfounded",
			"win(X) :- e(X,Y), not win(Y).",
			rg.DlogWin()),
		fixedClass("tc2", "g20k", "datalog", "stratified",
			fmt.Sprintf("tc(%d,X) :- e(%d,X). tc(%d,X) :- e(%d,X). tc(A,Y) :- tc(A,X), e(X,Y).", src[1], src[1], src[2], src[2]),
			rg.DlogTC(src[1], src[2])),
	}
	return &readInputs{
		dbs:    map[string]string{"g20k": g.Script()},
		stream: deckStream(seed, "dlog-read-mix", classes),
		warm:   twice(classes),
		traced: tracedRequests,
	}
}

// Query texts of the algebra workloads. %s is a set literal of sources, %d a
// constant.
const (
	textClosurePairs = `ifp(s, union(select(e, \p -> p.1 in %s), map(select(product(s, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`
	textTwoHop       = `map(select(product(e, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))`
	textTriangle     = `select(product(product(e, e), e), \p -> p.1.1.2 = p.1.2.1 and p.1.2.2 = p.2.1 and p.2.2 = p.1.1.1)`
	textEqWin        = `def win = map(diff(e, product(map(e, \x -> x.1), win)), \x -> x.1); query win;`
	textPointOut     = `select(e, \p -> p.1 = %d)`
	textPointTwoHop  = `map(select(product(select(e, \p -> p.1 = %d), e), \p -> p.1.2 = p.2.1), \p -> p.2.2)`
	textPointLevels  = `ifp(s, union({(%d, 0)}, map(select(product(s, e), \p -> p.1.1 = p.2.1 and p.1.2 < %d), \p -> (p.2.2, p.1.2 + 1))))`
)

// pointDepth bounds pt-ifp's closure: two rounds of the fixpoint keep the
// request in the 3-10 ms band where the serving path, not the engine, is
// most of the time.
const pointDepth = 2

func setLiteral(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = itoa(x)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func algReadInputs(seed uint64, z gen.Sizes) *readInputs {
	g := gen.RandomDigraph(gen.New(seed, "g20k"), z.GNodes, z.GEdges)
	w := gen.GameGraph(gen.New(seed, "w300"), z.WNodes, z.WChain)
	src := g.Sources(gen.New(seed, "alg-read"), 4)
	rg, rw := refGraph(g), refGraph(w)
	classes := []*class{
		fixedClass("ifp-reach4", "g20k", "ifp-algebra", "", fmt.Sprintf(textClosurePairs, setLiteral(src)), rg.ClosurePairs(src...)),
		fixedClass("alg-2hop", "g20k", "algebra", "", textTwoHop, rg.TwoHop()),
		fixedClass("alg-triangle", "g20k", "algebra", "", textTriangle, rg.Triangles()),
		fixedClass("eq-win", "w300", "algebra=", "valid", textEqWin, rw.EqWin()),
	}
	return &readInputs{
		dbs:    map[string]string{"g20k": g.Script(), "w300": w.Script()},
		stream: deckStream(seed, "alg-read-mix", classes),
		warm:   twice(classes),
		traced: tracedRequests,
	}
}

func adhocPointInputs(seed uint64, z gen.Sizes) *readInputs {
	g := gen.RandomDigraph(gen.New(seed, "g20k"), z.GNodes, z.GEdges)
	rg := refGraph(g)
	classes := []*class{
		{name: "pt-out", db: "g20k", lang: "ifp-algebra", param: true,
			text: func(k int) string { return fmt.Sprintf(textPointOut, k) },
			want: rg.PointOut},
		{name: "pt-2hop", db: "g20k", lang: "ifp-algebra", param: true,
			text: func(k int) string { return fmt.Sprintf(textPointTwoHop, k) },
			want: rg.PointTwoHop},
		{name: "pt-ifp", db: "g20k", lang: "ifp-algebra", param: true,
			text: func(k int) string { return fmt.Sprintf(textPointLevels, k, pointDepth) },
			want: func(k int) ref.Answer { return rg.PointLevels(k, pointDepth) }},
	}
	// Six times the other workloads' sample: the requests are a tenth as
	// long, and a replayed rung of 3 ms is within a GC pause of its parent.
	in := &readInputs{dbs: map[string]string{"g20k": g.Script()}, traced: 6 * tracedRequests}
	in.stream = func() func() request {
		deck := gen.NewDeck(gen.New(seed, "adhoc-mix"), len(classes))
		pts := gen.NewPoints(gen.New(seed, "adhoc-points"), g.Nodes)
		return func() request {
			k, _ := pts.Next()
			return request{c: classes[deck.Next()], k: k}
		}
	}
	// Warm-up asks for every hot text once, so the measured window starts
	// with the plan cache full of hot plans.
	for _, k := range gen.NewPoints(gen.New(seed, "adhoc-points"), g.Nodes).Hot {
		for _, c := range classes {
			in.warm = append(in.warm, request{c: c, k: k})
		}
	}
	return in
}

// ---- write-stream ----

// view is one live subscription of the write workload.
type view struct {
	name, text string
	want       func(g *ref.Graph) ref.Answer
}

type writeInputs struct {
	seed   uint64
	h      *gen.Graph
	base   *ref.Graph // the hierarchy as loaded; never written
	script string
	views  []view
}

func writeStreamInputs(seed uint64, z gen.Sizes) *writeInputs {
	h := gen.Hierarchy(gen.New(seed, "h10k"), z.HNodes)
	mid := h.Nodes / 2
	reach := view{"reach", "r(X) :- e(0,X). r(Y) :- r(X), e(X,Y).",
		func(g *ref.Graph) ref.Answer { return g.DlogReach(0, false) }}
	second := reach
	second.name = "reach-twin" // the identical text: what view sharing would share
	return &writeInputs{seed: seed, h: h, base: refGraph(h), script: h.Script(), views: []view{
		reach,
		second,
		{"orphan", fmt.Sprintf("r(X) :- e(%d,X). r(Y) :- r(X), e(X,Y). orphan(Y) :- e(X,Y), not r(X).", mid),
			func(g *ref.Graph) ref.Answer { return g.DlogOrphan(mid) }},
		{"gp", "gp(X,Z) :- e(X,Y), e(Y,Z).",
			func(g *ref.Graph) ref.Answer { return g.DlogGP() }},
	}}
}

// mutationAck is one acknowledged batch: when it was sent and the database
// version it produced.
type mutationAck struct {
	sent    time.Time
	version uint64
}

type writeSession struct {
	in     *writeInputs
	writer *conn
	reader *conn
	subs   []*subscription
	sched  *gen.Schedule
	points *gen.Rand
	g      *ref.Graph // the database as the acknowledged batches left it
}

func (in *writeInputs) open(t target, _ string) (session, error) {
	s := &writeSession{
		in:     in,
		writer: newConn(t.URL()),
		reader: newConn(t.URL()),
		sched:  gen.NewSchedule(gen.New(in.seed, "write-schedule"), in.h.Nodes),
		points: gen.New(in.seed, "write-reads"),
		g:      refGraph(in.h),
	}
	if _, err := putDB(s.writer, "h10k", in.script); err != nil {
		s.close()
		return nil, err
	}
	for _, v := range in.views {
		sub, err := subscribe(t.URL(), v.name, queryBody("h10k", "datalog", "stratified", v.text))
		if err != nil {
			s.close()
			return nil, err
		}
		s.subs = append(s.subs, sub)
	}
	// Warm-up fills the churn window, so every measured batch both inserts
	// and deletes, and lets the reader's plan and the store's caches settle.
	for i := 0; i < gen.ChurnLag; i++ {
		if _, _, err := s.mutate(); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up batch %d: %w", i, err)
		}
		if _, err := s.read(); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up read %d: %w", i, err)
		}
	}
	return s, nil
}

// mutate sends the next batch of the schedule and, once acknowledged,
// applies it to the reference graph.
func (s *writeSession) mutate() (mutationAck, time.Duration, error) {
	b := s.sched.Next()
	sent := time.Now()
	ack, lat, err := s.writer.call(http.MethodPost, "/v1/dbs/h10k/facts", factsBody(b))
	if err != nil {
		return mutationAck{}, lat, err
	}
	v, err := versionOf(ack)
	if err != nil {
		return mutationAck{}, lat, err
	}
	applyBatch(s.g, b)
	return mutationAck{sent, v}, lat, nil
}

// applyBatch brings the reference graph up to an acknowledged batch:
// deletions first, as the service applies them.
func applyBatch(g *ref.Graph, b gen.Batch) {
	for _, e := range b.Delete {
		g.DelEdge(e.From, e.To)
	}
	for _, e := range b.Insert {
		g.AddEdge(e.From, e.To)
	}
}

// read issues a point query on a node of the lower half of the hierarchy,
// whose out-edges the schedule never touches: the answer is fixed, but the
// service must materialize e afresh when the writer has moved the store's
// epoch since the last read.
func (s *writeSession) read() (time.Duration, error) {
	k := s.points.Intn(s.in.h.Nodes / 2)
	resp, lat, err := s.reader.call(http.MethodPost, "/v1/query", queryBody("h10k", "ifp-algebra", "", fmt.Sprintf(textPointOut, k)))
	if err != nil {
		return lat, err
	}
	return lat, checkAnswer("read-after-write", resp, s.in.base.PointOut(k))
}

func (s *writeSession) measure(window time.Duration) *opLog {
	wlog, rlog := newOpLog(), newOpLog()
	var acks []mutationAck
	start := time.Now()
	deadline := start.Add(window)
	// The reader asks once per acknowledged batch, so that every read is a
	// read after a write; a token still pending when the next ack arrives
	// is enough, the reader is then already behind.
	acked := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(acked)
		for time.Now().Before(deadline) {
			wlog.attempted++
			ack, lat, err := s.mutate()
			if err != nil {
				wlog.fail(err)
				continue
			}
			wlog.ok("mutate", lat)
			acks = append(acks, ack)
			select {
			case acked <- struct{}{}:
			default:
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range acked {
			rlog.attempted++
			lat, err := s.read()
			if err != nil {
				rlog.fail(err)
				continue
			}
			rlog.extra["read_after_write"] = append(rlog.extra["read_after_write"], ms(lat))
		}
	}()
	wg.Wait()
	wlog.elapsed = time.Since(start)
	wlog.merge(rlog)
	s.deltaLags(wlog, acks)
	return wlog
}

// deltaLags waits until every stream has delivered the last acknowledged
// version and records, per mutation and stream, the time from sending the
// mutation to the arrival of the first event at or past its version.
func (s *writeSession) deltaLags(log *opLog, acks []mutationAck) {
	if len(acks) == 0 {
		return
	}
	last := acks[len(acks)-1].version
	for _, sub := range s.subs {
		for wait := time.Now().Add(10 * time.Second); sub.version() < last && sub.failed() == nil && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		if sub.version() < last {
			log.attempted++
			log.fail(fmt.Errorf("subscription %s stopped at version %d of %d", sub.name, sub.version(), last))
			continue
		}
		sub.mu.Lock()
		i := 0
		for _, a := range acks {
			for sub.arrivals[i].version < a.version {
				i++
			}
			log.extra["delta_lag"] = append(log.extra["delta_lag"], ms(sub.arrivals[i].at.Sub(a.sent)))
		}
		sub.mu.Unlock()
	}
}

// finish asserts, per view: client-side maintained view == fresh /v1/query
// == reference. Each view is one attempted op.
func (s *writeSession) finish(log *opLog) {
	for i, v := range s.in.views {
		log.attempted++
		sub := s.subs[i]
		if err := sub.failed(); err != nil {
			log.fail(err)
			continue
		}
		want := v.want(s.g)
		if got := sub.answer(); !got.Equal(want) {
			log.fail(fmt.Errorf("view %s: maintained view %v, reference %v", v.name, got, want))
			continue
		}
		resp, _, err := s.reader.call(http.MethodPost, "/v1/query", queryBody("h10k", "datalog", "stratified", v.text))
		if err == nil {
			err = checkAnswer("view "+v.name+" fresh query", resp, want)
		}
		if err != nil {
			log.fail(err)
		}
	}
}

func (s *writeSession) close() {
	for _, sub := range s.subs {
		sub.close()
	}
	s.writer.close()
	s.reader.close()
}

// ---- bulk-cycle ----

type bulkInputs struct {
	seed   uint64
	b      *gen.Graph
	script string
	g      *ref.Graph
}

func bulkCycleInputs(seed uint64, z gen.Sizes) *bulkInputs {
	b := gen.RandomDigraph(gen.New(seed, "b100k"), z.BNodes, z.BEdges)
	return &bulkInputs{seed: seed, b: b, script: b.Script(), g: refGraph(b)}
}

type bulkSession struct {
	in     *bulkInputs
	t      target
	dir    string
	points *gen.Rand
}

func (in *bulkInputs) open(t target, dir string) (session, error) {
	s := &bulkSession{in: in, t: t, dir: dir, points: gen.New(in.seed, "bulk-points")}
	// One whole cycle warms the page cache and leaves a recovered service
	// with the database loaded, the state every measured cycle starts from.
	if err := s.cycle(newOpLog()); err != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}
	return s, nil
}

// pointQuery issues pt-out on a fresh connection's first request and checks
// the answer.
func (s *bulkSession) pointQuery(c *conn) (time.Duration, error) {
	k := s.points.Intn(s.in.b.Nodes)
	resp, lat, err := c.call(http.MethodPost, "/v1/query", queryBody("b", "ifp-algebra", "", fmt.Sprintf(textPointOut, k)))
	if err != nil {
		return lat, err
	}
	return lat, checkAnswer("pt-out", resp, s.in.g.PointOut(k))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// cycle is one op: load, cold query, checkpoint, restart, recover, query.
func (s *bulkSession) cycle(log *opLog) error {
	facts := float64(len(s.in.b.Edges))
	c := newConn(s.t.URL())
	put, err := putDB(c, "b", s.in.script)
	if err != nil {
		c.close()
		return err
	}
	log.extra["load_facts_s"] = append(log.extra["load_facts_s"], facts/put.Seconds())
	if _, err := s.pointQuery(c); err != nil {
		c.close()
		return err
	}
	_, _, err = c.call(http.MethodPost, "/v1/dbs/b/snapshot", []byte(`{"snapshot":"cycle"}`))
	c.close()
	if err != nil {
		return err
	}
	bytes, err := dirBytes(s.dir)
	if err != nil {
		return err
	}
	log.extra["disk_bytes_per_fact"] = append(log.extra["disk_bytes_per_fact"], float64(bytes)/facts)

	respawned, err := s.t.Restart()
	if err != nil {
		return err
	}
	c = newConn(s.t.URL())
	defer c.close()
	for !listedDB(c, "b") {
		if time.Since(respawned) > 30*time.Second {
			return fmt.Errorf("database b not listed 30s after the restart")
		}
		time.Sleep(time.Millisecond)
	}
	log.extra["recovery"] = append(log.extra["recovery"], ms(time.Since(respawned)))
	cold, err := s.pointQuery(c)
	if err != nil {
		return err
	}
	log.extra["cold_query"] = append(log.extra["cold_query"], ms(cold))
	return nil
}

func (s *bulkSession) measure(window time.Duration) *opLog {
	log := newOpLog()
	start := time.Now()
	for deadline := start.Add(window); time.Now().Before(deadline); {
		log.attempted++
		t0 := time.Now()
		if err := s.cycle(log); err != nil {
			log.fail(err)
			continue
		}
		log.ok("cycle", time.Since(t0))
	}
	log.elapsed = time.Since(start)
	return log
}

func (s *bulkSession) finish(*opLog) {}
func (s *bulkSession) close()        {}

// implemented holds the program's side of each workload BENCHMARK.json
// lists; the name, the reason and the order are the file's (loadBench).
var implemented = map[string]workload{
	"dlog-read":    {prepare: func(seed uint64, z gen.Sizes) inputs { return dlogReadInputs(seed, z) }},
	"alg-read":     {prepare: func(seed uint64, z gen.Sizes) inputs { return algReadInputs(seed, z) }},
	"adhoc-point":  {prepare: func(seed uint64, z gen.Sizes) inputs { return adhocPointInputs(seed, z) }},
	"write-stream": {disk: true, prepare: func(seed uint64, z gen.Sizes) inputs { return writeStreamInputs(seed, z) }},
	"bulk-cycle":   {disk: true, prepare: func(seed uint64, z gen.Sizes) inputs { return bulkCycleInputs(seed, z) }},
}
