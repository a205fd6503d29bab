package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/sim"
	"ituaval/internal/study"
)

// fig5Reps is the fixed replication count per Figure-5 point of one
// regeneration.
const fig5Reps = 400

// fig5RefPath is the checked-in Figure 5, relative to the repository root.
const fig5RefPath = "results/fig5.csv"

// fig5Alpha is the family-wise false-alarm rate of one run's Figure-5 check
// over all its comparisons.
const fig5Alpha = 1e-5

// fig5Sim regenerates all four Figure-5 panels (12 points: 6 spread rates
// x 2 exclusion policies, 10 domains x 3 hosts x 4 apps x 7 replicas)
// through study.RunContext, over and over with fresh seeds.
type fig5Sim struct {
	ref    map[cellKey]cell
	models []*core.Model
	figs   []*study.Figure
}

// cellKey names one estimate of a figure: panel, series and x.
type cellKey struct {
	panel, series string
	x             float64
}

type cell struct{ y, hw float64 }

// fig5Point is one of the 12 Figure-5 configurations.
type fig5Point struct {
	label  string
	params core.Params
}

// fig5Points mirrors study 3's configuration: the sweep the fig5 runner
// builds internally.
func fig5Points() []fig5Point {
	var ps []fig5Point
	for _, pol := range []core.Policy{core.HostExclusion, core.DomainExclusion} {
		for _, spread := range study.Fig5SpreadRates {
			p := core.DefaultParams()
			p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 10, 3, 4, 7
			p.CorruptionMult = 5
			p.DomainSpreadRate = spread
			p.Policy = pol
			ps = append(ps, fig5Point{fmt.Sprintf("%v/spread=%g", pol, spread), p})
		}
	}
	return ps
}

// fig5Vars are the four Figure-5 measures on application 0.
func fig5Vars(m *core.Model) []reward.Var {
	return []reward.Var{
		m.Unavailability("u5", 0, 0, 5),
		m.Unavailability("u10", 0, 0, 10),
		m.Unreliability("r5", 0, 5),
		m.Unreliability("r10", 0, 10),
	}
}

func (w *fig5Sim) setup(e *env) error {
	ref, err := readFig5Ref(filepath.Join(e.root, fig5RefPath))
	if err != nil {
		return err
	}
	w.ref = ref
	w.models = w.models[:0]
	for _, p := range fig5Points() {
		m, err := core.Build(p.params)
		if err != nil {
			return err
		}
		w.models = append(w.models, m)
	}
	return nil
}

func (w *fig5Sim) close() error { return nil }

// regenSeed is the root seed of regeneration i: every point of every
// regeneration in a run gets its own seed (the study adds per-point offsets
// below 1000).
func regenSeed(seed uint64, i int) uint64 { return seed*1_000_000 + uint64(i)*1000 + 1 }

func (w *fig5Sim) measure(ctx context.Context, e *env, d time.Duration, rec *recorder) (*window, error) {
	win := &window{}
	start := time.Now()
	for time.Since(start) < d || len(win.ops) == 0 {
		runtime.GC()
		i := len(w.figs)
		cfg := study.Config{Reps: fig5Reps, Seed: regenSeed(e.seed, i), Workers: e.workers}
		var fig *study.Figure
		lat, err := rec.timed(0, "study.RunContext", fmt.Sprintf("regen=%d", i), func() error {
			var err error
			fig, err = study.RunContext(ctx, "fig5", cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig5 regeneration %d: %w", i, err)
		}
		reps, done, failed := figureReps(fig)
		win.attempted += reps
		win.failed += failed
		win.work += float64(done)
		win.ops = append(win.ops, lat)
		win.wall += lat
		w.figs = append(w.figs, fig)
	}
	return win, nil
}

// figureReps sums the replication accounting of a figure's first panel
// (every panel carries the same points).
func figureReps(f *study.Figure) (reps, completed, failed int) {
	if len(f.Panels) == 0 {
		return 0, 0, 0
	}
	for _, s := range f.Panels[0].Series {
		for i := range s.X {
			reps += s.Reps[i]
			completed += s.Completed[i]
			failed += s.Failed[i]
		}
	}
	return reps, completed, failed
}

func (w *fig5Sim) check() error { return checkFig5(w.figs, w.ref, fig5Alpha) }

// readFig5Ref parses results/fig5.csv (figure,panel,series,x,y,hw).
func readFig5Ref(path string) (map[cellKey]cell, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ref := make(map[cellKey]cell)
	for i, r := range rows {
		if i == 0 {
			continue
		}
		if len(r) < 6 {
			return nil, fmt.Errorf("%s: row %d has %d fields", path, i+1, len(r))
		}
		x, err1 := strconv.ParseFloat(r[3], 64)
		y, err2 := strconv.ParseFloat(r[4], 64)
		hw, err3 := strconv.ParseFloat(r[5], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%s: row %d is not numeric", path, i+1)
		}
		ref[cellKey{r[1], r[2], x}] = cell{y, hw}
	}
	if len(ref) != 48 {
		return nil, fmt.Errorf("%s: %d estimates, want 48", path, len(ref))
	}
	return ref, nil
}

// checkFig5 pools every regeneration's estimates per cell and tests each
// pooled estimate against the reference with a two-sided z-test whose
// variance is the sum of both estimates' variances. The critical value is
// Bonferroni-corrected for the number of cells, so the chance that a
// correct run fails anywhere is at most alpha whatever the seed.
func checkFig5(figs []*study.Figure, ref map[cellKey]cell, alpha float64) error {
	if len(figs) == 0 {
		return fmt.Errorf("fig5: no regeneration to check")
	}
	type pool struct{ n, sum, varSum float64 }
	pools := make(map[cellKey]*pool)
	for fi, f := range figs {
		seen := 0
		for _, p := range f.Panels {
			for _, s := range p.Series {
				for i := range s.X {
					k := cellKey{p.ID, s.Name, s.X[i]}
					if _, ok := ref[k]; !ok {
						return fmt.Errorf("fig5 regeneration %d: unexpected estimate %v", fi, k)
					}
					y, hw, n := s.Y[i], s.HW[i], float64(s.N[i])
					if math.IsNaN(y) || y < 0 || y > 1 || math.IsNaN(hw) || hw < 0 || n < 2 {
						return fmt.Errorf("fig5 regeneration %d: %v = %g ± %g (n=%g) is not a probability estimate", fi, k, y, hw, n)
					}
					if pools[k] == nil {
						pools[k] = &pool{}
					}
					se := hw / 1.96
					pools[k].n += n
					pools[k].sum += n * y
					pools[k].varSum += n * n * se * se
					seen++
				}
			}
		}
		if seen != len(ref) {
			return fmt.Errorf("fig5 regeneration %d: %d estimates, want %d", fi, seen, len(ref))
		}
	}
	z := math.Sqrt2 * math.Erfinv(1-alpha/float64(len(ref)))
	for k, r := range ref {
		p := pools[k]
		if p == nil {
			return fmt.Errorf("fig5: no estimate for %s %q x=%g", k.panel, k.series, k.x)
		}
		y := p.sum / p.n
		se := math.Sqrt(p.varSum/(p.n*p.n) + (r.hw/1.96)*(r.hw/1.96))
		if d := math.Abs(y - r.y); d > z*se {
			return fmt.Errorf("fig5 %s %q x=%g: %.6f differs from the reference %.6f by %.2g > %.2f combined standard errors (%.2g)",
				k.panel, k.series, k.x, y, r.y, d, z, z*se)
		}
	}
	return nil
}

// fig5ProbeReps is the replication count per point of the per-layer probes.
const fig5ProbeReps = 100

func (w *fig5Sim) probe(ctx context.Context, e *env, rec *recorder, m map[string]float64) error {
	points := fig5Points()
	root := rec.start(0, "probe.fig5", "")
	defer rec.end(root)

	// core.Build of every point.
	var build time.Duration
	for _, p := range points {
		d, err := rec.timed(root, "core.Build", p.label, func() error {
			_, err := core.Build(p.params)
			return err
		})
		if err != nil {
			return err
		}
		build += d
	}
	m["core.build_ms"] = ms(build) / float64(len(points))

	// sim.Engine.RunOnce with and without the four observers, one worker,
	// so the firing and allocation counts repeat exactly for a seed.
	withObs, err := w.runOnceAll(e, rec, root, true)
	if err != nil {
		return err
	}
	noObs, err := w.runOnceAll(e, rec, root, false)
	if err != nil {
		return err
	}
	reps := float64(len(points) * fig5ProbeReps)
	m["sim.rep_us"] = float64(withObs.wall.Microseconds()) / reps
	m["sim.ns_per_firing"] = float64(withObs.wall.Nanoseconds()) / float64(withObs.firings)
	m["sim.firings_per_rep"] = float64(withObs.firings) / reps
	m["sim.allocs_per_rep"] = allocsPer(uint64(withObs.allocs), len(points)*fig5ProbeReps)
	m["reward.obs_frac"] = (withObs.wall.Seconds() - noObs.wall.Seconds()) / withObs.wall.Seconds()

	// rng.Stream.Expo.
	const draws = 4_000_000
	st := rng.New(e.seed)
	var sink float64
	d, _ := rec.timed(root, "rng.Expo", "", func() error {
		for i := 0; i < draws; i++ {
			sink += st.Expo(1.5)
		}
		return nil
	})
	if sink <= 0 {
		return fmt.Errorf("rng: exponential draws summed to %g", sink)
	}
	m["rng.expo_ns"] = float64(d.Nanoseconds()) / draws

	// The same sweep on one worker and on all of them.
	var walls [2]time.Duration
	for i, workers := range []int{1, e.workers} {
		cfg := study.Config{Reps: fig5ProbeReps, Seed: regenSeed(e.seed, 999), Workers: workers}
		walls[i], err = rec.timed(root, "study.RunContext", fmt.Sprintf("workers=%d", workers), func() error {
			_, err := study.RunContext(ctx, "fig5", cfg)
			return err
		})
		if err != nil {
			return err
		}
	}
	m["sweep.speedup"] = walls[0].Seconds() / walls[1].Seconds()
	m["sweep.efficiency"] = m["sweep.speedup"] / float64(e.workers)
	return nil
}

type runOnceStats struct {
	wall            time.Duration
	firings, allocs int64
}

// runOnceAll runs fig5ProbeReps replications of every point on one engine
// each, with the Figure-5 observers or with none.
func (w *fig5Sim) runOnceAll(e *env, rec *recorder, parent int, observe bool) (runOnceStats, error) {
	var st runOnceStats
	var ms0, ms1 runtime.MemStats
	for pi, m := range w.models {
		eng := sim.NewEngine(m.SAN, false)
		vars := fig5Vars(m)
		root := rng.New(regenSeed(e.seed, 998) + uint64(pi))
		name := "sim.RunOnce"
		if observe {
			name = "sim.RunOnce+reward"
		}
		d, err := rec.timed(parent, name, fmt.Sprintf("point=%d", pi), func() error {
			runtime.ReadMemStats(&ms0)
			defer runtime.ReadMemStats(&ms1)
			for r := 0; r < fig5ProbeReps; r++ {
				var obs []reward.Observer
				if observe {
					obs = make([]reward.Observer, len(vars))
					for i, v := range vars {
						obs[i] = v.NewObserver()
					}
				}
				if err := eng.RunOnce(10, root.Derive(uint64(r)), obs, 0); err != nil {
					return err
				}
				st.firings += eng.Firings()
			}
			return nil
		})
		if err != nil {
			return st, err
		}
		st.wall += d
		st.allocs += int64(ms1.Mallocs - ms0.Mallocs)
	}
	return st, nil
}
