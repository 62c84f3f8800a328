package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"algrec/benchmark/gen"
	"algrec/benchmark/ref"
)

// conn is one request-issuing connection: a client whose transport holds at
// most one keep-alive connection to the service.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// okPrefix starts every success body the service writes.
var okPrefix = []byte(`{"ok":true`)

// call sends one request, reads the whole response and applies the success
// criteria every op shares: 2xx and "ok":true. The latency runs from before
// the send to after the last body byte.
func (c *conn) call(method, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	r, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	resp, err := io.ReadAll(r.Body)
	lat := time.Since(start)
	r.Body.Close()
	if err != nil {
		return nil, lat, err
	}
	if r.StatusCode/100 != 2 || !bytes.HasPrefix(resp, okPrefix) {
		return nil, lat, fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, r.StatusCode, resp)
	}
	return resp, lat, nil
}

// queryBody renders a POST /v1/query (or /v1/subscribe) body.
func queryBody(db, lang, sem, text string) []byte {
	b, err := json.Marshal(struct {
		DB        string `json:"db"`
		Language  string `json:"language"`
		Semantics string `json:"semantics,omitempty"`
		Query     string `json:"query"`
	}{db, lang, sem, text})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// factsBody renders a POST /v1/dbs/{name}/facts body for e facts.
func factsBody(b gen.Batch) []byte {
	var buf bytes.Buffer
	list := func(key string, edges []gen.Edge) {
		fmt.Fprintf(&buf, "%q:[", key)
		for i, e := range edges {
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"pred":"e","args":[%d,%d]}`, e.From, e.To)
		}
		buf.WriteByte(']')
	}
	buf.WriteByte('{')
	list("insert", b.Insert)
	buf.WriteByte(',')
	list("delete", b.Delete)
	buf.WriteByte('}')
	return buf.Bytes()
}

// ---- reading answers out of responses ----

// predFacts, namedSet and result mirror the parts of the service's result
// JSON the benchmark's queries produce.
type predFacts struct {
	Pred  string   `json:"pred"`
	True  []string `json:"true"`
	Undef []string `json:"undef"`
}

type namedSet struct {
	Name  string `json:"name"`
	Set   string `json:"set"`
	Undef string `json:"undef"`
}

type result struct {
	Value   *string     `json:"value"`
	Defs    []namedSet  `json:"defs"`
	Queries []namedSet  `json:"queries"`
	Preds   []predFacts `json:"preds"`
}

// splitSet cuts a rendered set literal "{a, (b, c), ...}" into its top-level
// elements.
func splitSet(s string) ([]string, error) {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("not a set literal: %.40q", s)
	}
	s = s[1 : len(s)-1]
	var elems []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '{':
			depth++
		case ')', '}':
			depth--
		case ',':
			if depth == 0 {
				elems = append(elems, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if last := strings.TrimSpace(s[start:]); last != "" {
		elems = append(elems, last)
	}
	return elems, nil
}

// answerOf summarises a result the way package ref summarises its own
// answers.
func answerOf(res *result) (ref.Answer, error) {
	a := ref.Answer{}
	addSet := func(part, lit string) error {
		if lit == "" {
			return nil
		}
		elems, err := splitSet(lit)
		for _, e := range elems {
			a.Add(part, e)
		}
		return err
	}
	if res.Value != nil {
		if err := addSet("value", *res.Value); err != nil {
			return nil, err
		}
	}
	for _, d := range res.Defs {
		if err := addSet(d.Name, d.Set); err != nil {
			return nil, err
		}
		if err := addSet(d.Name+"?", d.Undef); err != nil {
			return nil, err
		}
	}
	for _, q := range res.Queries {
		if err := addSet("query", q.Set); err != nil {
			return nil, err
		}
		if err := addSet("query?", q.Undef); err != nil {
			return nil, err
		}
	}
	for _, p := range res.Preds {
		for _, f := range p.True {
			a.Add(p.Pred, f)
		}
		for _, f := range p.Undef {
			a.Add(p.Pred+"?", f)
		}
	}
	return a, nil
}

// queryAnswer decodes a /v1/query success body into its answer.
func queryAnswer(body []byte) (ref.Answer, error) {
	var resp struct {
		Result result `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return answerOf(&resp.Result)
}

// checkAnswer compares a response's answer with the reference.
func checkAnswer(what string, body []byte, want ref.Answer) error {
	got, err := queryAnswer(body)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !got.Equal(want) {
		return fmt.Errorf("%s: wrong answer: got %v, reference %v", what, got, want)
	}
	return nil
}

// lengthSlack is how far the length of a repeated response may differ from
// the verified first one: only the wallMS and cacheHit fields vary.
const lengthSlack = 16

// ---- subscriptions ----

// subEvent is one event of an ndjson subscription stream.
type subEvent struct {
	Event   string  `json:"event"`
	Version uint64  `json:"version"`
	Result  *result `json:"result"`
	Preds   []struct {
		Pred         string   `json:"pred"`
		Added        []string `json:"added"`
		Removed      []string `json:"removed"`
		UndefAdded   []string `json:"undefAdded"`
		UndefRemoved []string `json:"undefRemoved"`
	} `json:"preds"`
	Reason string `json:"reason"`
}

// arrival is when the stream delivered the state of a database version.
type arrival struct {
	version uint64
	at      time.Time
}

// subscription is a live ndjson stream and the view the client maintains
// from it: the snapshot's facts with every delta applied.
type subscription struct {
	name string
	body io.ReadCloser
	done chan struct{}

	mu       sync.Mutex
	view     map[string]map[string]bool // part -> rendered facts
	arrivals []arrival
	reason   string // close reason once "bye" arrived
	err      error
}

// subscribe opens the stream and returns once the initial snapshot has been
// read, which is when the service has built the view.
func subscribe(base, name string, body []byte) (*subscription, error) {
	resp, err := http.Post(base+"/v1/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe %s: HTTP %d: %.200s", name, resp.StatusCode, b)
	}
	s := &subscription{name: name, body: resp.Body, done: make(chan struct{}), view: map[string]map[string]bool{}}
	rd := bufio.NewReaderSize(resp.Body, 1<<20)
	if err := s.readEvent(rd); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe %s: first event: %w", name, err)
	}
	go func() {
		defer close(s.done)
		for {
			if err := s.readEvent(rd); err != nil {
				s.mu.Lock()
				if s.reason == "" { // a stream that ends without "bye" is an error
					s.err = err
				}
				s.mu.Unlock()
				return
			}
		}
	}()
	return s, nil
}

// readEvent reads and applies one event.
func (s *subscription) readEvent(rd *bufio.Reader) error {
	line, err := rd.ReadBytes('\n')
	if err != nil {
		return err
	}
	at := time.Now()
	var ev subEvent
	if err := json.Unmarshal(line, &ev); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	set := func(part string) map[string]bool {
		m := s.view[part]
		if m == nil {
			m = map[string]bool{}
			s.view[part] = m
		}
		return m
	}
	switch ev.Event {
	case "snapshot":
		if ev.Result == nil {
			return fmt.Errorf("snapshot event without a result")
		}
		s.view = map[string]map[string]bool{}
		for _, p := range ev.Result.Preds {
			for _, f := range p.True {
				set(p.Pred)[f] = true
			}
			for _, f := range p.Undef {
				set(p.Pred + "?")[f] = true
			}
		}
	case "delta":
		for _, p := range ev.Preds {
			for _, f := range p.Removed {
				delete(set(p.Pred), f)
			}
			for _, f := range p.Added {
				set(p.Pred)[f] = true
			}
			for _, f := range p.UndefRemoved {
				delete(set(p.Pred+"?"), f)
			}
			for _, f := range p.UndefAdded {
				set(p.Pred + "?")[f] = true
			}
		}
	case "bye":
		s.reason = ev.Reason
		return io.EOF
	default:
		return fmt.Errorf("unknown event %q", ev.Event)
	}
	s.arrivals = append(s.arrivals, arrival{ev.Version, at})
	return nil
}

// version is the newest database version the stream has delivered.
func (s *subscription) version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.arrivals) == 0 {
		return 0
	}
	return s.arrivals[len(s.arrivals)-1].version
}

// answer summarises the client-side maintained view.
func (s *subscription) answer() ref.Answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := ref.Answer{}
	for part, facts := range s.view {
		for f := range facts {
			a.Add(part, f)
		}
	}
	return a
}

// failed reports whether the stream broke or the service closed it with
// reason "error".
func (s *subscription) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return fmt.Errorf("subscription %s: %w", s.name, s.err)
	}
	if s.reason == "error" {
		return fmt.Errorf("subscription %s: closed with reason \"error\"", s.name)
	}
	return nil
}

// close hangs up and waits for the reader to end.
func (s *subscription) close() {
	s.body.Close()
	<-s.done
}

// listedDB reports whether GET /v1/dbs lists the named database.
func listedDB(c *conn, name string) bool {
	resp, _, err := c.call(http.MethodGet, "/v1/dbs", nil)
	if err != nil {
		return false
	}
	var out struct {
		DBs []struct {
			Name string `json:"name"`
		} `json:"dbs"`
	}
	if json.Unmarshal(resp, &out) != nil {
		return false
	}
	for _, d := range out.DBs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// versionOf reads the version out of a mutation or snapshot ack.
func versionOf(ack []byte) (uint64, error) {
	var out struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(ack, &out); err != nil {
		return 0, err
	}
	if out.Version == 0 {
		return 0, fmt.Errorf("ack without a version: %.100s", ack)
	}
	return out.Version, nil
}

func itoa(i int) string { return strconv.Itoa(i) }
