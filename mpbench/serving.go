package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/serve"
)

// Serve workload shapes. The server runs at its defaults (2 executors,
// fan-out threshold 50000 analytic-trial equivalents, goroutine vehicle)
// except EngineWorkers, set to 1 so executors × engine workers stays
// within the 2 CPUs the load is sized for.
const (
	serveEngineWorkers = 1
	// mixClients closed-loop clients share one request schedule.
	mixClients = 2
	// The serve-mix traffic below is an assumption: the repository holds
	// no request log or usage figures to take a mix from.
	//
	// mixWarm specs are warmed into the cache at setup; hits repeat them.
	// Every warmed spec is served by the same cache path with a body of
	// the same size, so the number only sets the warm-up's share of
	// setup_s; any count within the cache size (256) would do.
	mixWarm = 8
	// mixColdEvery: one schedule entry in this many is a cold request.
	// Both clients spend nearly all their time inside cold runs (about
	// 105 ms against 0.07 ms for a hit), so a 15 s run completes about
	// 285 colds whatever the share, and about (mixColdEvery-1) × 285
	// hits. 10 is the largest cold share measured at which the hit p50 no
	// longer moves with the share (it reads the same at 1 in 20) and the
	// hit p99 keeps more than 10 samples beyond it. At 1 in 5 the hit p50
	// reads about 20 % higher and the p99 falls short of samples.
	mixColdEvery = 10
	// coldSamples keeps a cold table4x (6 streams) far below the fan-out
	// threshold.
	coldSamples = 1000
	// heavySamples puts fig5 (cost 1 per sample) exactly at the fan-out
	// threshold, so every heavy request fans out.
	heavySamples = 50000
	// heavyShards is the fan-out width at the server's defaults (one
	// shard per executor).
	heavyShards = 2
	// coldChecks is how many cold outputs are recomputed through the
	// library after the timed phase.
	coldChecks = 3
)

// liveServer is one in-process `mpvar serve` instance on loopback.
type liveServer struct {
	url    string
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

var serverSeq atomic.Int64

// startServer starts a server on a free loopback port and returns once
// it is listening.
func startServer(cfg serve.Config, tmp string) (*liveServer, error) {
	cfg.FanoutDir = filepath.Join(tmp, fmt.Sprintf("fanout-%d", serverSeq.Add(1)))
	s := serve.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{cancel: cancel, done: make(chan error, 1)}
	addr := make(chan net.Addr, 1)
	go func() { ls.done <- s.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addr <- a }) }()
	select {
	case a := <-addr:
		ls.url = "http://" + a.String()
		return ls, nil
	case err := <-ls.done:
		cancel()
		return nil, err
	}
}

// stop drains the server and waits until it has shut down; later calls
// return the first call's result.
func (s *liveServer) stop() error {
	s.once.Do(func() {
		s.cancel()
		s.err = <-s.done
	})
	return s.err
}

// runRequest is the POST /v1/runs body.
type runRequest struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Samples  int    `json:"samples"`
}

func (r runRequest) spec() core.RunSpec {
	return core.RunSpec{Workload: r.Workload, Seed: r.Seed, Samples: r.Samples}
}

// reply is one HTTP run response as the client saw it.
type reply struct {
	latency time.Duration
	handler time.Duration
	// cache and fanout are the X-Mpvar-Cache and X-Mpvar-Fanout headers:
	// whether the body came from the cache, and over how many shards it
	// was computed ("" when it was not fanned out).
	cache, fanout string
	tables        []byte
	err           error
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}, Timeout: 2 * time.Minute}
}

// post submits r and waits for the result. A non-200 status (429 and
// 503 included) is a failed operation.
func post(hc *http.Client, url string, r runRequest) reply {
	b, err := json.Marshal(r)
	if err != nil {
		return reply{err: err}
	}
	t0 := time.Now()
	resp, err := hc.Post(url+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{latency: time.Since(t0), cache: resp.Header.Get("X-Mpvar-Cache"), fanout: resp.Header.Get("X-Mpvar-Fanout")}
	if ms, perr := strconv.ParseFloat(resp.Header.Get("X-Mpvar-Elapsed-Ms"), 64); perr == nil {
		rp.handler = time.Duration(ms * 1e6)
	}
	switch {
	case err != nil:
		rp.err = err
	case resp.StatusCode != http.StatusOK:
		rp.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		// Only the tables are compared: the envelope's engine version may
		// change on purpose without the numbers changing.
		var env struct {
			Tables json.RawMessage `json:"tables"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			rp.err = fmt.Errorf("%w: %v", errMismatch, err)
		}
		rp.tables = env.Tables
	}
	return rp
}

// health is the part of GET /v1/healthz the benchmark reads.
type health struct {
	QueueDepth  int   `json:"queue_depth"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Fanout      struct {
		ShardsRedispatched int64 `json:"shards_redispatched"`
	} `json:"fanout"`
	Remote struct {
		PeersLive        int   `json:"peers_live"`
		ShardsDispatched int64 `json:"shards_dispatched"`
		ShippedBytes     int64 `json:"shipped_bytes"`
		FailedOver       int64 `json:"failed_over"`
	} `json:"remote"`
}

func getHealth(hc *http.Client, url string) (health, error) {
	var h health
	resp, err := hc.Get(url + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// references memoizes library-computed tables per run key, so the
// traced run's second instance does not recompute them.
var references struct {
	sync.Mutex
	tables map[string][]byte
	trials map[string]int
}

// reference returns the tables and trial count the library computes for
// r, on two engine workers.
func reference(r runRequest) ([]byte, int, error) {
	key, err := r.spec().Key()
	if err != nil {
		return nil, 0, err
	}
	references.Lock()
	t, ok := references.tables[key]
	n := references.trials[key]
	references.Unlock()
	if ok {
		return t, n, nil
	}
	t, n, err = runLibrary(r.spec(), 2)
	if err != nil {
		return nil, 0, err
	}
	references.Lock()
	defer references.Unlock()
	if references.tables == nil {
		references.tables, references.trials = map[string][]byte{}, map[string]int{}
	}
	references.tables[key], references.trials[key] = t, n
	return t, n, nil
}

// ------------------------------------------------------------ serve-mix

// mixEntry is schedule entry i of the serve-mix request stream: every
// mixColdEvery-th entry is a cold table4x with a fresh seed, and the
// others hit one of the warmed specs, chosen from the seed. The fixed
// positions keep the cold share of any completed prefix at 1/mixColdEvery,
// so per-operation figures do not move with the draw.
func mixEntry(seed int64, i int) (class string, r runRequest, warm int) {
	if i%mixColdEvery == 0 {
		return "cold", runRequest{Workload: "table4x", Seed: repSeed(seed, i), Samples: coldSamples}, -1
	}
	w := int(splitmix64(uint64(seed)<<24^uint64(i)) % mixWarm)
	return "hit", warmRequest(seed, w), w
}

func warmRequest(seed int64, w int) runRequest {
	return runRequest{Workload: "table4x", Seed: repSeed(seed, -100-w), Samples: coldSamples}
}

type mixInstance struct {
	seed       int64
	srv        *liveServer
	hc         *http.Client
	warmRef    [][]byte
	coldTrials int
}

func setupMix(cfg runConfig, _ int) (instance, error) {
	srv, err := startServer(serve.Config{EngineWorkers: serveEngineWorkers}, cfg.tmp)
	if err != nil {
		return nil, err
	}
	m := &mixInstance{seed: cfg.seed, srv: srv, hc: newClient(mixClients)}
	// Warm the cache with every hit spec, mixClients at a time.
	errs := make(chan error, mixWarm)
	sem := make(chan struct{}, mixClients)
	for w := 0; w < mixWarm; w++ {
		sem <- struct{}{}
		go func(w int) {
			defer func() { <-sem }()
			errs <- post(m.hc, srv.url, warmRequest(m.seed, w)).err
		}(w)
	}
	for w := 0; w < mixWarm; w++ {
		if err := <-errs; err != nil {
			m.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return m, nil
}

func (m *mixInstance) prepare() error {
	m.warmRef = make([][]byte, mixWarm)
	for w := range m.warmRef {
		t, n, err := reference(warmRequest(m.seed, w))
		if err != nil {
			return err
		}
		m.warmRef[w], m.coldTrials = t, n
	}
	return nil
}

func (m *mixInstance) op(i int, tr *tracer) opResult {
	class, r, warm := mixEntry(m.seed, i)
	rp := traceRequest(tr, i, m.hc, m.srv.url, r)
	o := opResult{index: i, class: class, latency: rp.latency, handler: rp.handler, err: rp.err}
	if o.err != nil {
		return o
	}
	if class == "hit" {
		switch {
		case rp.cache != "hit":
			o.err = fmt.Errorf("%w: hit request answered with X-Mpvar-Cache %q", errMismatch, rp.cache)
		case !bytes.Equal(rp.tables, m.warmRef[warm]):
			o.err = fmt.Errorf("%w: hit body differs from the library's tables", errMismatch)
		}
		return o
	}
	if rp.cache != "miss" || rp.fanout != "" {
		o.err = fmt.Errorf("%w: cold request answered with X-Mpvar-Cache %q, X-Mpvar-Fanout %q", errMismatch, rp.cache, rp.fanout)
		return o
	}
	o.trials, o.out = m.coldTrials, rp.tables
	o.err = checkTables(rp.tables, 24)
	return o
}

// traceRequest posts r; when tracing, it records the request span and,
// inside it, the client-side run key computation the server repeats.
func traceRequest(tr *tracer, i int, hc *http.Client, url string, r runRequest) reply {
	id := tr.begin("serve.request", 0, int64(i))
	if tr != nil {
		k := tr.begin("core.Key", id, int64(i))
		_, err := r.spec().Key()
		tr.end(k, 1)
		if err != nil {
			tr.end(id, 1)
			return reply{err: err}
		}
	}
	rp := post(hc, url, r)
	tr.end(id, 1)
	return rp
}

// verify recomputes the first cold outputs through the library.
func (m *mixInstance) verify(ops []opResult) (checks, failed int, err error) {
	for _, o := range ops {
		if checks == coldChecks {
			break
		}
		if o.class != "cold" || o.err != nil {
			continue
		}
		_, r, _ := mixEntry(m.seed, o.index)
		want, _, err := reference(r)
		if err != nil {
			return 0, 0, err
		}
		checks++
		if !bytes.Equal(want, o.out) {
			failed++
		}
	}
	return checks, failed, nil
}

func (m *mixInstance) servers() []*liveServer { return []*liveServer{m.srv} }
func (m *mixInstance) close() error           { return m.srv.stop() }

var serveMix = &workload{
	name: "serve-mix",
	what: fmt.Sprintf("in-process serve, %d closed-loop clients: %d%% cache hits on %d warmed table4x@%d specs beside cold table4x@%d writes with fresh seeds",
		mixClients, 100-100/mixColdEvery, mixWarm, coldSamples, coldSamples),
	clients:  mixClients,
	measured: "hit",
	setup:    setupMix,
	ladder:   mixLadder,
}

// ------------------------------------------------------------ heavy fan-out

// heavyRequest is heavy request i: fig5 at the fan-out threshold with a
// fresh seed.
func heavyRequest(seed int64, i int) runRequest {
	return runRequest{Workload: "fig5", Seed: repSeed(seed, i), Samples: heavySamples}
}

type heavyInstance struct {
	cfg    runConfig
	seed   int64
	fleet  []*liveServer // coordinator first
	hc     *http.Client
	trials int
	ref0   []byte
	// remote is set when the coordinator ships shards to peers;
	// dispatched0 is its remote.shards_dispatched count before the timed
	// phase.
	remote      bool
	dispatched0 int64
}

// setupHeavy starts the fleet — peers first, so the coordinator's first
// health sweep finds them — waits until every peer is live, and warms the
// coordinator with one small direct run.
func setupHeavy(cfg runConfig, peers int) (*heavyInstance, error) {
	h := &heavyInstance{cfg: cfg, seed: cfg.seed, hc: newClient(2), remote: peers > 0}
	var addrs []string
	var peerSrv []*liveServer
	for p := 0; p < peers; p++ {
		s, err := startServer(serve.Config{EngineWorkers: serveEngineWorkers}, cfg.tmp)
		if err != nil {
			stopAll(peerSrv)
			return nil, err
		}
		peerSrv = append(peerSrv, s)
		addrs = append(addrs, s.url)
	}
	coord := serve.Config{EngineWorkers: serveEngineWorkers}
	if peers > 0 {
		coord.FanoutExec, coord.Peers = "remote", addrs
	}
	c, err := startServer(coord, cfg.tmp)
	if err != nil {
		stopAll(peerSrv)
		return nil, err
	}
	h.fleet = append([]*liveServer{c}, peerSrv...)
	if peers > 0 {
		if err := waitPeers(h.hc, c.url, peers); err != nil {
			h.close()
			return nil, err
		}
	}
	warm := runRequest{Workload: "fig5", Seed: repSeed(cfg.seed, -200), Samples: 2000}
	if err := post(h.hc, c.url, warm).err; err != nil {
		h.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return h, nil
}

// waitPeers polls the coordinator's healthz until it reports n live
// peers.
func waitPeers(hc *http.Client, url string, n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		hz, err := getHealth(hc, url)
		if err == nil && hz.Remote.PeersLive == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d peers not live after 20 s (last error: %v)", n, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopAll stops every server, reporting the first error.
func stopAll(ss []*liveServer) error {
	var first error
	for _, s := range ss {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (h *heavyInstance) prepare() error {
	var err error
	if h.ref0, h.trials, err = reference(heavyRequest(h.seed, 0)); err != nil || !h.remote {
		return err
	}
	hz, err := getHealth(h.hc, h.fleet[0].url)
	h.dispatched0 = hz.Remote.ShardsDispatched
	return err
}

func (h *heavyInstance) op(i int, tr *tracer) opResult {
	rp := traceRequest(tr, i, h.hc, h.fleet[0].url, heavyRequest(h.seed, i))
	o := opResult{index: i, class: "heavy", latency: rp.latency, handler: rp.handler, err: rp.err}
	if o.err != nil {
		return o
	}
	// The body is the same whether or not the run fanned out, so only the
	// header shows that the fan-out path was taken.
	if rp.cache != "miss" || rp.fanout != strconv.Itoa(heavyShards) {
		o.err = fmt.Errorf("%w: heavy request answered with X-Mpvar-Cache %q, X-Mpvar-Fanout %q, want miss over %d shards",
			errMismatch, rp.cache, rp.fanout, heavyShards)
		return o
	}
	o.trials, o.out = h.trials, rp.tables
	o.err = checkTables(rp.tables, 3)
	return o
}

// verify compares the first heavy output, reduced from shards, with the
// library's direct single-process run. With the remote vehicle it also
// checks that every shard of the timed phase went to a peer: the vehicle
// falls back to in-process execution, with the same body and header,
// when no peer is live.
func (h *heavyInstance) verify(ops []opResult) (checks, failed int, err error) {
	if len(ops) > 0 && ops[0].index == 0 && ops[0].err == nil {
		checks++
		if !bytes.Equal(ops[0].out, h.ref0) {
			failed++
		}
	}
	if !h.remote {
		return checks, failed, nil
	}
	hz, err := getHealth(h.hc, h.fleet[0].url)
	if err != nil {
		return 0, 0, err
	}
	checks++
	if got, want := hz.Remote.ShardsDispatched-h.dispatched0, int64(heavyShards*len(ops)); got != want {
		failed++
		h.cfg.logf("remote check: %d shards dispatched to peers for %d heavy requests, want %d", got, len(ops), want)
	}
	return checks, failed, nil
}

func (h *heavyInstance) servers() []*liveServer { return h.fleet }
func (h *heavyInstance) close() error           { return stopAll(h.fleet) }

var serveHeavy = &workload{
	name:     "serve-heavy",
	what:     fmt.Sprintf("in-process serve, 1 closed-loop client: fig5@%d with fresh seeds, fanned out over 2 shards on the default goroutine vehicle", heavySamples),
	clients:  1,
	measured: "heavy",
	setup: func(cfg runConfig, _ int) (instance, error) {
		return setupHeavy(cfg, 0)
	},
	ladder: heavyLadder,
}

var remoteFanout = &workload{
	name:     "remote-fanout",
	what:     fmt.Sprintf("serve coordinator with the remote vehicle and 2 in-process peers (1 engine worker each), 1 closed-loop client: fig5@%d with fresh seeds", heavySamples),
	clients:  1,
	measured: "heavy",
	setup: func(cfg runConfig, _ int) (instance, error) {
		return setupHeavy(cfg, 2)
	},
	ladder: heavyLadder,
}
