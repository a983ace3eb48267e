package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const n = 5000
	cold := 0
	warm := map[int]bool{}
	for i := 0; i < n; i++ {
		c1, r1, w1 := mixEntry(7, i)
		c2, r2, w2 := mixEntry(7, i)
		if c1 != c2 || r1 != r2 || w1 != w2 {
			t.Fatalf("entry %d differs between two generations", i)
		}
		switch c1 {
		case "cold":
			cold++
			if r1.Seed <= 0 || r1.Samples != coldSamples {
				t.Fatalf("cold entry %d: %+v", i, r1)
			}
		case "hit":
			warm[w1] = true
			if r1 != warmRequest(7, w1) {
				t.Fatalf("hit entry %d does not repeat warm spec %d", i, w1)
			}
		default:
			t.Fatalf("entry %d has class %q", i, c1)
		}
	}
	if cold != n/mixColdEvery {
		t.Errorf("%d cold entries in %d, want 1 in %d", cold, n, mixColdEvery)
	}
	if len(warm) != mixWarm {
		t.Errorf("hits reach %d of %d warm specs", len(warm), mixWarm)
	}
	same := 0
	for i := 0; i < 200; i++ {
		_, a, _ := mixEntry(7, i)
		_, b, _ := mixEntry(8, i)
		if a == b {
			same++
		}
	}
	if same > 100 {
		t.Errorf("seeds 7 and 8 share %d of 200 requests", same)
	}
	seen := map[int64]bool{}
	for i := -300; i < 300; i++ {
		s := repSeed(7, i)
		if s <= 0 || seen[s] {
			t.Fatalf("repSeed(7, %d) = %d is not a fresh positive seed", i, s)
		}
		seen[s] = true
	}
	if heavyRequest(7, 3) != heavyRequest(7, 3) || heavyRequest(7, 3) == heavyRequest(8, 3) {
		t.Error("heavy requests are not a function of (seed, index)")
	}
}

func TestProgressCounterSumsStreams(t *testing.T) {
	var p progressCounter
	// Two 600-trial streams in 256-trial blocks, then three one-block
	// streams of 4 trials each (equal done values start new streams).
	for _, d := range []int{256, 512, 600, 256, 512, 600, 4, 4, 4} {
		p.update(d, 0)
	}
	if got := p.total(); got != 1212 {
		t.Errorf("total = %d, want 1212", got)
	}
}

func TestCorruptedOutputIsCountedAsFailed(t *testing.T) {
	good := []byte(`[{"title":"t","rows":[{"a":1.5,"b":"x"},{"a":2,"b":"y"}]}]`)
	if err := checkTables(good, 2); err != nil {
		t.Fatalf("good output rejected: %v", err)
	}
	for name, bad := range map[string][]byte{
		"truncated":  good[:len(good)-5],
		"null value": []byte(`[{"title":"t","rows":[{"a":null,"b":"x"},{"a":2,"b":"y"}]}]`),
		"lost row":   []byte(`[{"title":"t","rows":[{"a":1.5,"b":"x"}]}]`),
	} {
		if err := checkTables(bad, 2); !errors.Is(err, errMismatch) {
			t.Errorf("%s output: err = %v, want a mismatch", name, err)
		}
	}
	inst := &fakeInstance{outputs: [][]byte{good, good[:10], good}}
	ph := drive(inst, 1, 20*time.Millisecond, nil)
	var tl tally
	tl.addPhase(ph)
	if ph.failures() == 0 || tl.failed != ph.failures() || tl.attempted != len(ph.ops) {
		t.Fatalf("corrupted outputs not counted: %d failed of %d (tally %+v)", ph.failures(), len(ph.ops), tl)
	}
	c, f := sameOutputs(ph.ops, []opResult{{index: 0, out: []byte("changed")}})
	if c != 1 || f != 1 {
		t.Errorf("sameOutputs = %d checks, %d failed; want 1, 1", c, f)
	}
}

// fakeInstance returns canned outputs in turn and checks them like a
// real workload does.
type fakeInstance struct{ outputs [][]byte }

func (f *fakeInstance) prepare() error { return nil }
func (f *fakeInstance) op(i int, _ *tracer) opResult {
	time.Sleep(time.Millisecond)
	out := f.outputs[i%len(f.outputs)]
	return opResult{index: i, class: "run", latency: time.Millisecond, trials: 1, out: out, err: checkTables(out, 2)}
}
func (f *fakeInstance) verify([]opResult) (int, int, error) { return 0, 0, nil }
func (f *fakeInstance) servers() []*liveServer              { return nil }
func (f *fakeInstance) close() error                        { return nil }

// TestWrongServePathIsCountedAsFailed serves correct bodies with headers
// that show the request took another path than its class exists to
// measure: a hit computed afresh, a heavy run not fanned out, shards not
// shipped to peers.
func TestWrongServePathIsCountedAsFailed(t *testing.T) {
	tables := `[{"title":"t","rows":[{"a":1},{"a":2},{"a":3}]}]`
	var cache, fanout string
	var dispatched int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			fmt.Fprintf(w, `{"remote":{"shards_dispatched":%d}}`, dispatched)
			return
		}
		w.Header().Set("X-Mpvar-Cache", cache)
		if fanout != "" {
			w.Header().Set("X-Mpvar-Fanout", fanout)
		}
		fmt.Fprintf(w, `{"engine":"e","tables":%s}`, tables)
	}))
	defer ts.Close()
	srv := &liveServer{url: ts.URL}

	heavy := &heavyInstance{fleet: []*liveServer{srv}, hc: ts.Client(), trials: 1}
	for _, c := range []struct {
		cache, fanout string
		ok            bool
	}{{"miss", "2", true}, {"miss", "", false}, {"miss", "3", false}, {"hit", "2", false}} {
		cache, fanout = c.cache, c.fanout
		if err := heavy.op(0, nil).err; (err == nil) != c.ok {
			t.Errorf("heavy answered %s over %q shards: err = %v", c.cache, c.fanout, err)
		}
	}

	mix := &mixInstance{seed: 5, srv: srv, hc: ts.Client(), warmRef: make([][]byte, mixWarm)}
	for w := range mix.warmRef {
		mix.warmRef[w] = []byte(tables)
	}
	for _, c := range []struct {
		i     int
		cache string
		ok    bool
	}{{1, "hit", true}, {1, "miss", false}, {0, "hit", false}} {
		cache, fanout = c.cache, ""
		if err := mix.op(c.i, nil).err; (err == nil) != c.ok || (err != nil && !errors.Is(err, errMismatch)) {
			t.Errorf("mix entry %d answered %s: err = %v", c.i, c.cache, err)
		}
	}

	heavy.remote, heavy.cfg = true, runConfig{out: io.Discard}
	ops := []opResult{{index: 1}, {index: 2}}
	for _, c := range []struct {
		dispatched int64
		failed     int
	}{{4, 0}, {2, 1}, {5, 1}} {
		dispatched = c.dispatched
		if checks, failed, err := heavy.verify(ops); err != nil || checks != 1 || failed != c.failed {
			t.Errorf("%d shards dispatched for 2 heavy requests: %d checks, %d failed, err %v; want 1, %d", c.dispatched, checks, failed, err, c.failed)
		}
	}
}
