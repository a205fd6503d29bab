package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/exact"
	"ituaval/internal/mc"
	"ituaval/internal/rng"
	"ituaval/internal/san"
	"ituaval/internal/study"
)

// exactT is the horizon of the exact measures, in hours.
const exactT = 10

// exactTol is the absolute tolerance of the pinned exact measures.
const exactTol = 1e-9

// topology is one symmetric configuration of the exact workload, with its
// pinned quotient-chain size and its three measures on application 0 at
// T = 10: Unavailability, Unreliability, FracDomainsExcluded.
type topology struct {
	name                string
	params              func() core.Params
	states, transitions int
	want                [3]float64
}

// topologies split the exact path's layers so that each dominates
// somewhere: bench4x1 is the internal/mc benchmark topology (the matvec
// dominates), d6h1a2 has six exchangeable domains and a small quotient
// (canonicalization dominates), d3h1a3 has a transposed CSR well past a
// 2 MiB L2 (the large matvec case).
var topologies = []topology{
	{"bench4x1", bench4x1Params, 39062, 240132,
		[3]float64{0.932764407179878, 0.9999999280917387, 0.6075788853559572}},
	{"d6h1a2", func() core.Params { return anchorParams(6, 1, 2) }, 6242, 28702,
		[3]float64{0.8965710105918516, 0.9999843603526588, 0.05294423991548211}},
	{"d3h1a3", func() core.Params { return anchorParams(3, 1, 3) }, 134682, 904179,
		[3]float64{0.8309654705300085, 0.991192761707779, 0.10177436503696806}},
}

// bench4x1Params is the internal/mc benchmark topology: four exchangeable
// one-host domains, spread, false alarms and manager attacks off.
func bench4x1Params() core.Params {
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 4, 1, 1, 2
	p.CorruptionMult = 5
	p.DomainSpreadRate, p.SystemSpreadRate = 0, 0
	p.TotalFalseAlarmRate = 0
	p.AttackSplitMgr = 0
	p.Analytic = true
	return p
}

// anchorParams is study.AnalyticAnchorParams with another topology.
func anchorParams(domains, hosts, apps int) core.Params {
	p := study.AnalyticAnchorParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps = domains, hosts, apps
	return p
}

// exactSolve is the output of one topology solve.
type exactSolve struct {
	topo                 string
	lumped               bool
	states, transitions  int
	unavail, unrel, excl float64
}

// exactLumped solves the three topologies from core.Params to their three
// measures with exact.NewSolver, pass after pass.
type exactLumped struct {
	order   []int // topology order of every pass, drawn from the seed
	models  []*core.Model
	solves  []exactSolve
	solvers map[string]*exact.Solver // the last traced pass, for the probes
}

func (w *exactLumped) setup(e *env) error {
	w.order = []int{0, 1, 2}
	rng.New(e.seed).Perm(w.order)
	w.models = w.models[:0]
	for _, t := range topologies {
		p := t.params()
		m, err := core.Build(p)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if core.NewCanonicalizer(m) == nil {
			return fmt.Errorf("%s: topology admits no canonicalizer", t.name)
		}
		w.models = append(w.models, m)
	}
	return nil
}

func (w *exactLumped) close() error { return nil }

// solveTopology runs exact.NewSolver and the three measures, inside spans
// when rec is set, and stores per-layer timings in layer when it is not nil.
func solveTopology(rec *recorder, parent int, t topology, workers int, layer map[string]float64) (exactSolve, *exact.Solver, error) {
	out := exactSolve{topo: t.name}
	var s *exact.Solver
	gen, err := rec.timed(parent, "exact.NewSolver", t.name, func() error {
		var err error
		s, err = exact.NewSolver(t.params(), exact.Options{Workers: workers})
		return err
	})
	if err != nil {
		return out, nil, fmt.Errorf("%s: %w", t.name, err)
	}
	out.lumped, out.states, out.transitions = s.Lumped, s.C.NumStates(), s.C.NumTransitions()
	measures := []struct {
		name, key string
		f         func() (float64, error)
		dst       *float64
	}{
		{"exact.Unavailability", "unavail", func() (float64, error) { return s.Unavailability(0, exactT) }, &out.unavail},
		{"exact.Unreliability", "unrel", func() (float64, error) { return s.Unreliability(0, exactT) }, &out.unrel},
		{"exact.FracDomainsExcluded", "excl", func() (float64, error) { return s.FracDomainsExcluded(exactT) }, &out.excl},
	}
	for _, ms := range measures {
		d, err := rec.timed(parent, ms.name, t.name, func() error {
			var err error
			*ms.dst, err = ms.f()
			return err
		})
		if err != nil {
			return out, nil, fmt.Errorf("%s %s: %w", t.name, ms.name, err)
		}
		if layer != nil {
			layer[fmt.Sprintf("uni.%s.%s_s", t.name, ms.key)] = d.Seconds()
		}
	}
	if layer != nil {
		n, nnz := float64(out.states), float64(out.transitions)
		layer["gen."+t.name+".s"] = gen.Seconds()
		layer["gen."+t.name+".states"] = n
		layer["gen."+t.name+".transitions"] = nnz
		layer["gen."+t.name+".states_per_s"] = n / gen.Seconds()
		// One uniformized matvec step streams the transposed CSR (int32 row
		// pointers and columns, float64 rates), gathers the input vector
		// and writes the output vector: computed, not measured.
		layer["uni."+t.name+".step_mb"] = (4*(n+1) + 12*nnz + 16*n) / (1 << 20)
	}
	return out, s, nil
}

func (w *exactLumped) measure(ctx context.Context, e *env, d time.Duration, rec *recorder) (*window, error) {
	win := &window{}
	if rec != nil {
		win.layer = make(map[string]float64)
		w.solvers = make(map[string]*exact.Solver)
	}
	start := time.Now()
	for pass := 0; time.Since(start) < d || pass == 0; pass++ {
		root := rec.start(0, "pass", fmt.Sprintf("pass=%d", pass))
		var passTime time.Duration
		for _, ti := range w.order {
			// Collect the previous topology's chain first, so neither the
			// timing nor the peak memory of a solve depends on the order.
			runtime.GC()
			t := topologies[ti]
			win.attempted++
			t0 := time.Now()
			out, s, err := solveTopology(rec, root, t, e.workers, win.layer)
			passTime += time.Since(t0)
			if err != nil {
				return nil, err
			}
			w.solves = append(w.solves, out)
			if w.solvers != nil {
				w.solvers[t.name] = s
			}
			win.work++
		}
		win.ops = append(win.ops, passTime)
		win.wall += passTime
		rec.end(root)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return win, nil
}

func (w *exactLumped) check() error { return checkExact(w.solves) }

// checkExact compares every solve with the pinned table: lumped, exact
// state and transition counts, and the three measures to exactTol.
func checkExact(solves []exactSolve) error {
	seen := make(map[string]bool)
	for _, s := range solves {
		seen[s.topo] = true
	}
	for _, t := range topologies {
		if !seen[t.name] {
			return fmt.Errorf("exact %s: not solved", t.name)
		}
	}
	for _, s := range solves {
		var t *topology
		for i := range topologies {
			if topologies[i].name == s.topo {
				t = &topologies[i]
			}
		}
		if t == nil {
			return fmt.Errorf("exact: unknown topology %q", s.topo)
		}
		if !s.lumped {
			return fmt.Errorf("exact %s: solved on the full chain, want the lumped quotient", s.topo)
		}
		if s.states != t.states || s.transitions != t.transitions {
			return fmt.Errorf("exact %s: %d states / %d transitions, want %d / %d",
				s.topo, s.states, s.transitions, t.states, t.transitions)
		}
		for i, got := range [3]float64{s.unavail, s.unrel, s.excl} {
			if !(math.Abs(got-t.want[i]) <= exactTol) {
				return fmt.Errorf("exact %s: measure %d = %.17g, want %.17g ± %g", s.topo, i, got, t.want[i], exactTol)
			}
		}
	}
	return nil
}

func (w *exactLumped) probe(_ context.Context, e *env, rec *recorder, m map[string]float64) error {
	root := rec.start(0, "probe.exact", "")
	defer rec.end(root)
	for ti, t := range topologies {
		s := w.solvers[t.name]
		if s == nil {
			return fmt.Errorf("exact %s: no solver from the traced pass", t.name)
		}
		// Generation allocations on one worker.
		model := w.models[ti]
		var c *mc.CTMC
		var allocs uint64
		_, err := rec.timed(root, "mc.Generate", t.name+"/workers=1", func() error {
			var err error
			allocs, _, err = countAllocs(func() error {
				c, err = mc.Generate(model.SAN, mc.Options{Workers: 1, Canon: core.NewCanonicalizer(model)})
				return err
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		m["gen."+t.name+".allocs_per_state"] = allocsPer(allocs, c.NumStates())

		// Canonicalize every quotient marking of the solver's chain.
		canon := core.NewCanonicalizer(s.M)
		n := s.C.NumStates()
		buf := make([]san.Marking, len(s.C.StateMarking(0)))
		var d time.Duration
		if _, err := rec.timed(root, "core.Canonicalize", t.name, func() error {
			var err error
			allocs, d, err = countAllocs(func() error {
				for id := 0; id < n; id++ {
					copy(buf, s.C.StateMarking(id))
					canon.Canonicalize(buf)
				}
				return nil
			})
			return err
		}); err != nil {
			return err
		}
		m["canon."+t.name+".ns_per_call"] = float64(d.Nanoseconds()) / float64(n)
		m["canon."+t.name+".allocs_per_call"] = allocsPer(allocs, n)
	}
	return nil
}

// allocsPer is allocs/n to two decimals. Go maps draw a random hash seed
// each, so a map-heavy call's allocation count moves by a few in millions
// from one process to the next; two decimals is the resolution at which
// the per-item count repeats.
func allocsPer(allocs uint64, n int) float64 {
	return math.Round(100*float64(allocs)/float64(n)) / 100
}

// countAllocs runs f with the collector paused and returns the heap
// allocations f made and its wall time. core.Canonicalizer pools its
// scratch and every collection empties the pool, so only with the
// collector paused does the count repeat exactly.
func countAllocs(f func() error) (allocs uint64, d time.Duration, err error) {
	runtime.GC()
	prev := debug.SetGCPercent(-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = f()
	d = time.Since(t0)
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(prev)
	runtime.GC()
	return m1.Mallocs - m0.Mallocs, d, err
}
