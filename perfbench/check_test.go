package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ituaval/internal/study"
)

var testSeeds = []uint64{1, 2, 3}

func testEnv(t *testing.T, seed uint64) *env {
	return &env{seed: seed, seconds: time.Second, root: "..", out: t.TempDir(), workers: runtime.NumCPU()}
}

// cloneFigure deep-copies a figure so a test can corrupt it.
func cloneFigure(t *testing.T, f *study.Figure) *study.Figure {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var c study.Figure
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestFig5CheckAcceptsSeedsAndRejectsWrongOutputs(t *testing.T) {
	ref, err := readFig5Ref(filepath.Join("..", fig5RefPath))
	if err != nil {
		t.Fatal(err)
	}
	var figs []*study.Figure
	for _, seed := range testSeeds {
		fig, err := study.RunContext(context.Background(), "fig5",
			study.Config{Reps: fig5Reps, Seed: regenSeed(seed, 0), Workers: runtime.NumCPU()})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFig5([]*study.Figure{fig}, ref, fig5Alpha); err != nil {
			t.Errorf("seed %d: correct regeneration rejected: %v", seed, err)
		}
		figs = append(figs, fig)
	}
	if err := checkFig5(figs, ref, fig5Alpha); err != nil {
		t.Errorf("pooled regenerations rejected: %v", err)
	}

	// A 10-second run pools eight to ten regenerations. Pooled that far, the
	// check catches a model bug that moves one large estimate by 10%
	// relative in every regeneration.
	pooled := append([]*study.Figure(nil), figs...)
	for i := 1; len(pooled) < 10; i++ {
		fig, err := study.RunContext(context.Background(), "fig5",
			study.Config{Reps: fig5Reps, Seed: regenSeed(testSeeds[0], i), Workers: runtime.NumCPU()})
		if err != nil {
			t.Fatal(err)
		}
		pooled = append(pooled, fig)
	}
	if err := checkFig5(pooled, ref, fig5Alpha); err != nil {
		t.Errorf("ten pooled regenerations rejected: %v", err)
	}
	shifted := make([]*study.Figure, len(pooled))
	for i, f := range pooled {
		shifted[i] = cloneFigure(t, f)
		p := shifted[i].Panels[3]
		s := p.Series[1]
		if p.ID != "5d" || s.Name != "Domain exclusion" || s.X[5] != 10 {
			t.Fatalf("cell to shift is %s %q x=%g, want 5d \"Domain exclusion\" x=10", p.ID, s.Name, s.X[5])
		}
		s.Y[5] *= 1.1
	}
	if err := checkFig5(shifted, ref, fig5Alpha); err == nil {
		t.Error("ten pooled regenerations with 5d domain exclusion x=10 shifted by 10% relative: accepted")
	}

	corruptions := map[string]func(f *study.Figure){
		"policies swapped in panel 5d": func(f *study.Figure) {
			s := f.Panels[3].Series
			s[0].Y, s[1].Y = s[1].Y, s[0].Y
		},
		"one estimate shifted by 0.1": func(f *study.Figure) { f.Panels[1].Series[0].Y[2] += 0.1 },
		"5-hour and 10-hour unavailability swapped": func(f *study.Figure) {
			f.Panels[0].Series, f.Panels[1].Series = f.Panels[1].Series, f.Panels[0].Series
		},
		"a point missing": func(f *study.Figure) {
			s := &f.Panels[2].Series[1]
			s.X, s.Y, s.HW, s.N = s.X[:5], s.Y[:5], s.HW[:5], s.N[:5]
		},
		"NaN estimate":    func(f *study.Figure) { f.Panels[0].Series[0].Y[0] = math.NaN() },
		"wrong x":         func(f *study.Figure) { f.Panels[0].Series[0].X[1] = 3 },
		"no regeneration": nil,
	}
	for name, corrupt := range corruptions {
		var bad []*study.Figure
		if corrupt != nil {
			bad = []*study.Figure{cloneFigure(t, figs[0])}
			corrupt(bad[0])
		}
		if err := checkFig5(bad, ref, fig5Alpha); err == nil {
			t.Errorf("%s: wrong output accepted", name)
		}
	}
}

func TestExactCheckPinnedTableAtEveryWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every topology twice")
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		var solves []exactSolve
		for _, top := range topologies {
			out, _, err := solveTopology(nil, 0, top, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			solves = append(solves, out)
		}
		if err := checkExact(solves); err != nil {
			t.Errorf("workers %d: %v", workers, err)
		}
	}
}

func TestExactCheckAcceptsSeedsAndRejectsWrongOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one full pass per seed")
	}
	var good []exactSolve
	for _, seed := range testSeeds {
		w := &exactLumped{}
		e := testEnv(t, seed)
		if err := w.setup(e); err != nil {
			t.Fatal(err)
		}
		if _, err := w.measure(context.Background(), e, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.check(); err != nil {
			t.Errorf("seed %d: correct pass rejected: %v", seed, err)
		}
		good = w.solves
	}
	corruptions := map[string]func(s []exactSolve) []exactSolve{
		"full chain":          func(s []exactSolve) []exactSolve { s[0].lumped = false; return s },
		"one state more":      func(s []exactSolve) []exactSolve { s[1].states++; return s },
		"transitions off":     func(s []exactSolve) []exactSolve { s[2].transitions--; return s },
		"measure off by 2e-9": func(s []exactSolve) []exactSolve { s[0].unrel += 2e-9; return s },
		"NaN measure":         func(s []exactSolve) []exactSolve { s[1].excl = math.NaN(); return s },
		"unknown topology":    func(s []exactSolve) []exactSolve { s[2].topo = "d9h9a9"; return s },
		"topology missing":    func(s []exactSolve) []exactSolve { return s[:2] },
		"nothing solved":      func(s []exactSolve) []exactSolve { return nil },
	}
	for name, corrupt := range corruptions {
		bad := corrupt(append([]exactSolve(nil), good...))
		if err := checkExact(bad); err == nil {
			t.Errorf("%s: wrong output accepted", name)
		}
	}
}

func TestLiveCheckAcceptsSeedsAndRejectsWrongOutputs(t *testing.T) {
	var good liveOut
	for _, seed := range testSeeds {
		_, out, err := runLive(context.Background(), liveSeed(seed, 0), liveBatch, runtime.NumCPU())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkLive([]liveOut{out}); err != nil {
			t.Errorf("seed %d: correct study rejected: %v", seed, err)
		}
		good = out
	}
	if good.unavail == 0 || good.unrel == 0 {
		t.Fatalf("live study measured unavailability %g and unreliability %g; the check needs nonzero ones to bite", good.unavail, good.unrel)
	}
	corruptions := map[string]func(o *liveOut){
		"a divergence":              func(o *liveOut) { o.divergences = 1 },
		"a failed replication":      func(o *liveOut) { o.failed, o.reps = 1, o.reps-1 },
		"live unavailability off":   func(o *liveOut) { o.unavail = math.Nextafter(o.unavail, 1) },
		"live unreliability off":    func(o *liveOut) { o.unrel += 1.0 / float64(o.reps) },
		"an observation missing":    func(o *liveOut) { o.unrelN-- },
		"exclusion fraction over 1": func(o *liveOut) { o.fracExcl = 1.5 },
	}
	for name, corrupt := range corruptions {
		bad := good
		corrupt(&bad)
		if err := checkLive([]liveOut{bad}); err == nil {
			t.Errorf("%s: wrong output accepted", name)
		}
	}
	if err := checkLive(nil); err == nil {
		t.Error("no study: accepted")
	}
}

func TestServiceCheckAcceptsSeedsAndRejectsWrongOutputs(t *testing.T) {
	var w *serviceMix
	for _, seed := range testSeeds {
		w = &serviceMix{}
		e := testEnv(t, seed)
		if err := w.setup(e); err != nil {
			t.Fatal(err)
		}
		win, err := w.measure(context.Background(), e, time.Second, nil)
		w.close()
		if err != nil {
			t.Fatal(err)
		}
		if win.failed != 0 {
			t.Errorf("seed %d: %d of %d requests failed", seed, win.failed, win.attempted)
		}
		if len(w.hits) == 0 {
			t.Fatalf("seed %d: no cache hit to check", seed)
		}
		if err := w.check(); err != nil {
			t.Errorf("seed %d: correct outputs rejected: %v", seed, err)
		}
	}
	id := w.hits[0].id
	corruptions := map[string]func(fresh map[string]freshResult, hits []hitResult) []hitResult{
		"hit bytes differ": func(_ map[string]freshResult, hits []hitResult) []hitResult {
			hits[0].sum[7] ^= 1
			return hits
		},
		"hit on an unknown job": func(_ map[string]freshResult, hits []hitResult) []hitResult {
			hits[0].id = strings.Repeat("0", 64)
			return hits
		},
		"streamed result differs": func(fresh map[string]freshResult, hits []hitResult) []hitResult {
			f := fresh[id]
			f.event = f.event[:len(f.event)-1]
			fresh[id] = f
			return hits
		},
		"wrong hash in the document": func(fresh map[string]freshResult, hits []hitResult) []hitResult {
			f := fresh[id]
			doc := strings.Replace(string(f.result), id, strings.Repeat("f", 64), 1)
			fresh[id] = freshResult{[]byte(doc), []byte(doc)}
			return nil
		},
		"estimate above 1": func(fresh map[string]freshResult, hits []hitResult) []hitResult {
			f := fresh[id]
			var doc map[string]any
			if err := json.Unmarshal(f.result, &doc); err != nil {
				t.Fatal(err)
			}
			y := doc["figure"].(map[string]any)["Panels"].([]any)[0].(map[string]any)["Series"].([]any)[0].(map[string]any)["Y"].([]any)
			y[0] = 1.5
			b, _ := json.Marshal(doc)
			fresh[id] = freshResult{b, b}
			return nil
		},
	}
	for name, corrupt := range corruptions {
		fresh := make(map[string]freshResult, len(w.fresh))
		for k, v := range w.fresh {
			fresh[k] = v
		}
		hits := corrupt(fresh, append([]hitResult(nil), w.hits...))
		if err := checkService(fresh, hits); err == nil {
			t.Errorf("%s: wrong output accepted", name)
		}
	}
	if err := checkService(nil, nil); err == nil {
		t.Error("no job: accepted")
	}
}

// TestCountsRepeat runs a traced operation and the probes of every
// workload that reports counts twice on one seed, and requires every count
// metric to repeat exactly.
func TestCountsRepeat(t *testing.T) {
	counts := map[string]bool{}
	for _, d := range layerMetrics() {
		if d.unit == "count" {
			counts[d.name] = true
		}
	}
	for _, name := range []string{"fig5-sim", "live-group", "exact-lumped"} {
		if testing.Short() && name == "exact-lumped" {
			continue
		}
		var runs [2]map[string]float64
		for i := range runs {
			w := workloads[name]()
			e := testEnv(t, 7)
			if err := w.setup(e); err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			win, err := w.measure(context.Background(), e, 0, rec)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = map[string]float64{}
			for k, v := range win.layer {
				runs[i][k] = v
			}
			if err := w.probe(context.Background(), e, rec, runs[i]); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		for k, v := range runs[0] {
			if counts[k] {
				n++
				if runs[1][k] != v {
					t.Errorf("%s %s: %v then %v", name, k, v, runs[1][k])
				}
			}
		}
		if n == 0 {
			t.Errorf("%s: no count metric probed", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "study.RunContext", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "sim.RunOnce", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "sim.RunOnce", StartNS: 30, EndNS: 60}, // overlaps 2
		{ID: 4, Parent: 1, Name: "core.Build", StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "rng.Expo", StartNS: 15, EndNS: 20},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"study": 100 - 50 - 10, "sim": 30 - 5 + 30, "core": 30, "rng": 5}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s: self %v, want %v", l, got[l], d)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables the program prints
// in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, decl []metricDecl, listed []struct{ Name, Unit string }) {
		if len(decl) != len(listed) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", kind, len(decl), len(listed))
			return
		}
		for i, d := range decl {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", e2eMetrics, bench.EndToEnd)
	same("per_layer", layerMetrics(), bench.PerLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	for _, wl := range bench.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", wl.Name)
		}
	}
}
