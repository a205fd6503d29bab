package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ituaval/internal/rng"
	"ituaval/internal/scenario"
	"ituaval/internal/server"
	"ituaval/internal/study"
)

const (
	// hitsPerFresh is the number of cache hits per fresh job in each
	// client's request sequence: every block of hitsPerFresh+1 requests
	// holds exactly one fresh job, at a position drawn from the seed, so
	// the mix is the same for every seed. The ratio is not taken from
	// observed ituad traffic (there is none to take it from); it is chosen
	// so that a window holds thousands of hits, which their sub-millisecond
	// latency needs for a steady median, next to a hundred or more fresh
	// jobs.
	hitsPerFresh = 9
	// freshReps is a fresh scenario's replication count per point (the
	// initial batch under a precision target, with maxReps 4x).
	freshReps = 250
	// minTracedFresh is the fewest fresh jobs the traced window measures,
	// so that at least 10 of them lie beyond server.job_p90_ms.
	minTracedFresh = 100
	// serviceProbeJobs, serviceProbeCalls and scenarioProbeBodies size
	// the probes.
	serviceProbeJobs    = 6
	serviceProbeCalls   = 2000
	scenarioProbeBodies = 200
)

// freshScenario is the fresh job: a small scenario of 4 domains of 2
// hosts, one application with 5 replicas and six spread rates, unique by
// its run seed. With target set it carries a relative half-width target,
// so the sequential precision path is served instead of the flat sweep.
func freshScenario(runSeed uint64, target bool) []byte {
	run := map[string]any{"reps": freshReps, "seed": runSeed}
	if target {
		run["targetRelHW"] = 0.25
		run["maxReps"] = 4 * freshReps
	}
	sc := map[string]any{
		"name": fmt.Sprintf("bench-%d", runSeed),
		"model": map[string]any{
			"domains": 4, "hostsPerDomain": 2, "apps": 1, "repsPerApp": 5,
			"corruptionMult": 5,
		},
		"horizon": 5,
		"measures": []map[string]any{
			{"name": "u5", "kind": "unavailability", "to": 5},
			{"name": "r5", "kind": "unreliability", "to": 5},
		},
		"sweep": map[string]any{"x": map[string]any{"param": "domainSpreadRate", "values": []float64{0, 2, 4, 6, 8, 10}}},
		"run":   run,
	}
	b, err := json.Marshal(sc)
	if err != nil {
		panic(err) // maps of scalars always marshal
	}
	return b
}

// serviceMix drives an in-process ituad server over a loopback listener
// with a closed loop of e.workers clients, each sending fresh jobs and
// resubmissions of jobs it has finished.
type serviceMix struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client

	mu sync.Mutex
	// fresh holds every fresh job's result bytes, from the stream's result
	// event and from GET /result; hits holds what every resubmission got.
	fresh map[string]freshResult
	hits  []hitResult
	// clients keeps each client's generator and finished jobs across
	// windows.
	clients []*client
}

type freshResult struct{ event, result []byte }

// hitResult keeps a digest of what a resubmission got: the run holds
// thousands of hits, so it keeps their SHA-256 instead of their bytes.
type hitResult struct {
	id  string
	sum [sha256.Size]byte
}

type client struct {
	rs       *rng.Stream
	n        int      // requests sent
	freshAt  int      // position of the fresh request in the current block
	finished []string // ids of this client's finished jobs
	bodies   map[string][]byte
	fresh    int // fresh jobs sent; every second one carries a precision target
}

func (w *serviceMix) setup(e *env) error {
	// Every set-up starts a server on the same data directory, which no
	// job has written to yet: a run sets up hundreds of times, and creating
	// and deleting that many directory trees slowed the filesystem enough
	// to make each run's set-up slower than the one before.
	dir := filepath.Join(e.out, "service")
	srv, err := server.New(server.Config{DataDir: dir, Workers: e.workers})
	if err != nil {
		return err
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv.Handler())
	// A fresh job takes well under a second; the timeout only keeps a hung
	// server from hanging the run.
	var dialer net.Dialer
	w.hc = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers,
			// Connections reset when they close instead of lingering in
			// TIME_WAIT. A run starts and stops hundreds of servers, and
			// the kernel's search for a free loopback port slows as
			// TIME_WAIT sockets pile up, which made each run's set-up
			// slower than the one before.
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dialer.DialContext(ctx, network, addr)
				if tc, ok := c.(*net.TCPConn); ok {
					err = errors.Join(err, tc.SetLinger(0))
				}
				return c, err
			},
		},
		Timeout: time.Minute,
	}
	if _, err := w.get(w.ts.URL + "/v1/healthz"); err != nil {
		return err
	}
	w.fresh = make(map[string]freshResult)
	w.hits = nil
	w.clients = make([]*client, e.workers)
	for c := range w.clients {
		w.clients[c] = &client{rs: rng.New(e.seed).Derive(uint64(c)), bodies: make(map[string][]byte)}
	}
	return nil
}

func (w *serviceMix) close() error {
	if w.srv == nil {
		return nil
	}
	// The client closes first, so the resets above leave no socket behind.
	w.hc.CloseIdleConnections()
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	w.srv = nil
	return err
}

// get fetches url and returns the body of a 200 response.
func (w *serviceMix) get(url string) ([]byte, error) {
	resp, err := w.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

type submitStatus struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

// submit posts a scenario and returns its status.
func (w *serviceMix) submit(body []byte) (submitStatus, int, error) {
	var st submitStatus
	resp, err := w.hc.Post(w.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, resp.StatusCode, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return st, resp.StatusCode, json.Unmarshal(b, &st)
}

// stream follows a job's event stream to its end and returns the time the
// started event arrived and the raw result of the final result event.
func (w *serviceMix) stream(id string) (started time.Time, result []byte, err error) {
	resp, err := w.hc.Get(w.ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return started, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return started, nil, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var last string
	for sc.Scan() {
		var ev struct {
			Type   string          `json:"type"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return started, nil, fmt.Errorf("stream %s: %w", id, err)
		}
		last = ev.Type
		switch ev.Type {
		case "started":
			started = time.Now()
		case "result":
			result = append([]byte(nil), ev.Result...)
		case "error":
			return started, nil, fmt.Errorf("job %s ended in an error event: %s", id, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return started, nil, fmt.Errorf("stream %s: %w", id, err)
	}
	if last != "result" {
		return started, nil, fmt.Errorf("job %s: stream ended with %q, not a result event", id, last)
	}
	return started, result, nil
}

// next decides the kind of the client's next request.
func (c *client) next() (fresh bool) {
	block := hitsPerFresh + 1
	if c.n%block == 0 {
		c.freshAt = c.rs.Intn(block)
	}
	fresh = c.n%block == c.freshAt || len(c.finished) == 0
	if fresh && c.n%block != c.freshAt {
		// The client has nothing to resubmit yet: swap the drawn fresh
		// slot with this one.
		c.freshAt = c.n % block
	}
	c.n++
	return fresh
}

// sample is one request's measurement.
type sample struct {
	fresh   bool
	target  bool // a fresh job with a precision target
	lat     time.Duration
	queue   time.Duration // submit to started event (fresh only)
	failed  bool
	failure error
}

// request performs one request of client ci.
func (w *serviceMix) request(e *env, ci int, rec *recorder) sample {
	c := w.clients[ci]
	fresh := c.next()
	var body []byte
	var target bool
	if fresh {
		runSeed := e.seed*1_000_000 + uint64(ci)*100_000 + uint64(c.fresh) + 1
		target = c.fresh%2 == 1
		body = freshScenario(runSeed, target)
		c.fresh++
	} else {
		body = c.bodies[c.finished[c.rs.Intn(len(c.finished))]]
	}
	kind := "hit"
	if fresh {
		kind = "fresh"
	}
	// Every span of one request carries the same request id.
	req := fmt.Sprintf("client%d/%s%d", ci, kind, c.n)
	root := rec.start(0, "request."+kind, req)
	defer rec.end(root)
	s := sample{fresh: fresh, target: target}
	fail := func(err error) sample {
		s.failed, s.failure = true, err
		return s
	}
	t0 := time.Now()
	var st submitStatus
	var code int
	if _, err := rec.timed(root, "http.POST /v1/jobs", req, func() error {
		var err error
		st, code, err = w.submit(body)
		return err
	}); err != nil {
		return fail(err)
	}
	if fresh != (code == http.StatusAccepted) || fresh == st.Cached {
		return fail(fmt.Errorf("%s request for %s answered %d (cached %v)", kind, st.ID, code, st.Cached))
	}
	var event []byte
	if fresh {
		var started time.Time
		if _, err := rec.timed(root, "http.GET stream", req, func() error {
			var err error
			started, event, err = w.stream(st.ID)
			return err
		}); err != nil {
			return fail(err)
		}
		s.queue = started.Sub(t0)
	}
	var result []byte
	if _, err := rec.timed(root, "http.GET result", req, func() error {
		var err error
		result, err = w.get(w.ts.URL + "/v1/jobs/" + st.ID + "/result")
		return err
	}); err != nil {
		return fail(err)
	}
	s.lat = time.Since(t0)
	w.mu.Lock()
	if fresh {
		w.fresh[st.ID] = freshResult{event, result}
	} else {
		w.hits = append(w.hits, hitResult{st.ID, sha256.Sum256(result)})
	}
	w.mu.Unlock()
	if fresh {
		c.finished = append(c.finished, st.ID)
		c.bodies[st.ID] = body
	}
	return s
}

func (w *serviceMix) measure(_ context.Context, e *env, d time.Duration, rec *recorder) (*window, error) {
	// The traced window reports the fresh-job p90, so it runs on until it
	// holds minTracedFresh fresh jobs.
	minFresh := int64(1)
	if rec != nil {
		minFresh = minTracedFresh
	}
	var freshDone atomic.Int64
	samples := make([][]sample, len(w.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range w.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for time.Since(start) < d || freshDone.Load() < minFresh {
				s := w.request(e, ci, rec)
				if s.fresh {
					freshDone.Add(1)
				}
				samples[ci] = append(samples[ci], s)
			}
		}(ci)
	}
	wg.Wait()
	win := &window{wall: time.Since(start), layer: make(map[string]float64)}
	var hits, queues []time.Duration
	var kinds [2][]time.Duration // fresh latencies: flat, precision target
	for _, ss := range samples {
		for _, s := range ss {
			win.attempted++
			if s.failed {
				win.failed++
				fmt.Fprintln(os.Stderr, "perfbench: request failed:", s.failure)
				continue
			}
			win.work++
			if s.fresh {
				win.ops = append(win.ops, s.lat)
				queues = append(queues, s.queue)
				t := 0
				if s.target {
					t = 1
				}
				kinds[t] = append(kinds[t], s.lat)
			} else {
				hits = append(hits, s.lat)
			}
		}
	}
	p90 := percentile(win.ops, 0.9)
	beyond := 0
	for _, l := range win.ops {
		if l > p90 {
			beyond++
		}
	}
	if rec != nil && beyond < 10 {
		return nil, fmt.Errorf("service: %d fresh jobs, only %d beyond their p90", len(win.ops), beyond)
	}
	win.layer["server.job_p90_ms"] = ms(p90)
	win.layer["server.hit_p50_ms"] = ms(median(hits))
	win.layer["server.queue_ms"] = ms(median(queues))
	fmt.Printf("service window: %d fresh jobs (%d beyond p90; p50 %.3f ms flat, %.3f ms with a precision target), %d hits\n",
		len(win.ops), beyond, ms(median(kinds[0])), ms(median(kinds[1])), len(hits))
	return win, nil
}

func (w *serviceMix) check() error { return checkService(w.fresh, w.hits) }

// resultDoc is the part of a result document the check reads.
type resultDoc struct {
	Hash   string `json:"hash"`
	Figure struct {
		Panels []struct {
			Series []struct {
				X, Y, HW []float64
			}
		}
	} `json:"figure"`
}

// checkService requires every fresh job's streamed result to be
// byte-identical to its GET /result bytes and to every later cache hit on
// the same hash, and every result document to carry its hash and a
// complete figure of probability estimates.
func checkService(fresh map[string]freshResult, hits []hitResult) error {
	if len(fresh) == 0 {
		return fmt.Errorf("service: no fresh job to check")
	}
	for id, f := range fresh {
		if !bytes.Equal(f.event, f.result) {
			return fmt.Errorf("service job %s: streamed result (%d bytes) differs from GET /result (%d bytes)", id, len(f.event), len(f.result))
		}
		var doc resultDoc
		if err := json.Unmarshal(f.result, &doc); err != nil {
			return fmt.Errorf("service job %s: %w", id, err)
		}
		if doc.Hash != id {
			return fmt.Errorf("service job %s: result document carries hash %q", id, doc.Hash)
		}
		if len(doc.Figure.Panels) != 2 {
			return fmt.Errorf("service job %s: %d panels, want 2", id, len(doc.Figure.Panels))
		}
		for _, p := range doc.Figure.Panels {
			if len(p.Series) != 1 || len(p.Series[0].Y) != 6 || len(p.Series[0].HW) != 6 {
				return fmt.Errorf("service job %s: want one series of 6 points per panel", id)
			}
			for i, y := range p.Series[0].Y {
				if hw := p.Series[0].HW[i]; !(y >= 0 && y <= 1 && hw >= 0 && !math.IsInf(hw, 0)) {
					return fmt.Errorf("service job %s: estimate %g ± %g is not a probability estimate", id, y, hw)
				}
			}
		}
	}
	for _, h := range hits {
		f, ok := fresh[h.id]
		if !ok {
			return fmt.Errorf("service: hit on %s, which no fresh job produced", h.id)
		}
		if h.sum != sha256.Sum256(f.result) {
			return fmt.Errorf("service job %s: cache hit differs from the fresh result", h.id)
		}
	}
	return nil
}

func (w *serviceMix) probe(ctx context.Context, e *env, rec *recorder, m map[string]float64) error {
	root := rec.start(0, "probe.service", "")
	defer rec.end(root)
	// Parse and compile seeded scenario bodies.
	var parse, compile time.Duration
	for i := 0; i < scenarioProbeBodies; i++ {
		body := freshScenario(e.seed*1_000_000+900_000+uint64(i), i%2 == 1)
		var sc *scenario.Scenario
		d, err := rec.timed(root, "scenario.Parse", "", func() error {
			var err error
			sc, err = scenario.Parse(body)
			return err
		})
		if err != nil {
			return err
		}
		parse += d
		d, err = rec.timed(root, "scenario.Compile", "", func() error {
			_, err := scenario.Compile(sc, scenario.Defaults{})
			return err
		})
		if err != nil {
			return err
		}
		compile += d
	}
	m["scenario.parse_us"] = float64(parse.Microseconds()) / scenarioProbeBodies
	m["scenario.compile_us"] = float64(compile.Microseconds()) / scenarioProbeBodies

	// The same scenarios run directly, directly with a checkpoint, and
	// through the server on one client: the server's overhead and the
	// checkpoint's cost per point.
	var overhead, ckpt []time.Duration
	for i := 0; i < serviceProbeJobs; i++ {
		body := freshScenario(e.seed*1_000_000+950_000+uint64(i), i%2 == 1)
		sc, err := scenario.Parse(body)
		if err != nil {
			return err
		}
		c, err := scenario.Compile(sc, scenario.Defaults{})
		if err != nil {
			return err
		}
		ck, err := study.OpenCheckpoint(filepath.Join(e.out, fmt.Sprintf("probe-%d.jsonl", i)), false)
		if err != nil {
			return err
		}
		var fig *study.Figure
		var direct, withCk time.Duration
		// Alternate which run goes first, so warm caches favour neither.
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				direct, err = rec.timed(root, "scenario.Run", c.Hash(), func() error {
					var err error
					fig, err = c.Run(ctx, c.Config(study.Config{Workers: e.workers}), study.SweepHooks{})
					return err
				})
			} else {
				withCk, err = rec.timed(root, "scenario.Run+checkpoint", c.Hash(), func() error {
					_, err := c.Run(ctx, c.Config(study.Config{Workers: e.workers, Checkpoint: ck}), study.SweepHooks{})
					return err
				})
			}
			if err != nil {
				return err
			}
		}
		ckpt = append(ckpt, (withCk-direct)/time.Duration(len(c.Points)))
		t0 := time.Now()
		st, _, err := w.submit(body)
		if err != nil {
			return err
		}
		if _, _, err := w.stream(st.ID); err != nil {
			return err
		}
		result, err := w.get(w.ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			return err
		}
		overhead = append(overhead, time.Since(t0)-direct)
		// The server must have computed the figure a direct run computes.
		var doc struct {
			Figure json.RawMessage `json:"figure"`
		}
		want, err := json.Marshal(fig)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(result, &doc); err != nil {
			return fmt.Errorf("service job %s: %w", st.ID, err)
		}
		if !bytes.Equal(doc.Figure, want) {
			return fmt.Errorf("service job %s: served figure differs from a direct run of the same scenario", st.ID)
		}
	}
	m["server.overhead_ms"] = ms(median(overhead))
	m["checkpoint.ms_per_point"] = ms(median(ckpt))

	// Health checks and cache reads on one connection.
	var cached string
	for id := range w.fresh {
		cached = id
		break
	}
	for _, c := range []struct{ metric, url string }{
		{"http.healthz_us", w.ts.URL + "/v1/healthz"},
		{"cache.read_us", w.ts.URL + "/v1/jobs/" + cached + "/result"},
	} {
		lats := make([]time.Duration, serviceProbeCalls)
		if _, err := rec.timed(root, c.metric, "", func() error {
			for i := range lats {
				t0 := time.Now()
				if _, err := w.get(c.url); err != nil {
					return err
				}
				lats[i] = time.Since(t0)
			}
			return nil
		}); err != nil {
			return err
		}
		m[c.metric] = float64(median(lats).Nanoseconds()) / 1e3
	}
	return nil
}
