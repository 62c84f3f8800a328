package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestConcurrentReadersDuringBulkLoad is the copy-on-write isolation test
// (run under -race in CI): while a writer replaces the database wholesale in
// a loop, concurrent query readers must always observe one of the two
// complete states — never a partial load — and subscribers must either
// stream consistently or be closed with the db-replaced goodbye. Exercised
// against both the memory registry and the disk backend.
func TestConcurrentReadersDuringBulkLoad(t *testing.T) {
	scriptA := chainScript(24)
	scriptB := `rel edge = {(z0, z1), (z1, z2), (z2, z3), (z3, z4)};`

	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			var ts *httptest.Server
			if mode == "disk" {
				_, ts = newDiskServer(t, t.TempDir())
			} else {
				s := New(Config{})
				ts = httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)
			}

			// Quiesced ground truth for both states.
			expect := func(script string) string {
				t.Helper()
				putDBScript(t, ts, "g", script)
				status, ok, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "ifp-algebra", Query: tcIFP})
				if status != http.StatusOK {
					t.Fatalf("query: status %d, error %+v", status, bad)
				}
				return ok.Result.Value
			}
			closureA := expect(scriptA)
			closureB := expect(scriptB)
			if closureA == closureB {
				t.Fatal("the two states must be distinguishable")
			}

			const (
				loads   = 12
				readers = 4
				subs    = 2
			)
			var wg sync.WaitGroup
			errs := make(chan string, readers+subs+1)
			done := make(chan struct{})

			// Open the subscriptions before the first load: each stream must
			// deliver a consistent snapshot and then the db-replaced goodbye
			// once a load overtakes it.
			streams := make([]*subStream, subs)
			for i := range streams {
				streams[i] = openSub(t, ts, dlogSub("g", tcProgram))
			}

			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := 0; i < loads; i++ {
					script := scriptA
					if i%2 == 0 {
						script = scriptB
					}
					putDBScript(t, ts, "g", script)
				}
			}()

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						status, ok, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "ifp-algebra", Query: tcIFP})
						if status != http.StatusOK {
							errs <- bad.Error.Code
							return
						}
						if v := ok.Result.Value; v != closureA && v != closureB {
							errs <- "torn read: " + v
							return
						}
					}
				}()
			}

			for _, st := range streams {
				st := st
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer st.resp.Body.Close()
					for {
						line, err := st.rd.ReadString('\n')
						if err != nil {
							errs <- "subscription read: " + err.Error()
							return
						}
						var e subEvent
						if err := json.Unmarshal([]byte(line), &e); err != nil {
							errs <- "subscription decode: " + err.Error()
							return
						}
						if e.Event == "bye" {
							if e.Reason != reasonReplaced {
								errs <- "bye reason " + e.Reason
							}
							return
						}
					}
				}()
			}

			wg.Wait()
			close(errs)
			for e := range errs {
				t.Errorf("concurrent failure: %s", e)
			}
		})
	}
}
