package mc

// Benchmarks of the symmetry-lumped analytic path on a real ITUA
// configuration (internal/core), the workload PR 9 is about: the
// BenchmarkMCITUA* pairs generate (and solve) the same 4-domain model
// twice — the full chain and the lumped quotient — so BENCH_PR9.json
// records the state-space reduction (the "states" metric) and the
// end-to-end speedup side by side. The tandem-network benchmarks in
// bench_test.go are unchanged and keep tracking the raw generator and
// uniformization kernels.

import (
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/san"
)

// benchITUAParams is the benchmark topology: four exchangeable domains of
// one host each (symmetry group S_4, order 24), the analytic study's
// corruption multiplier, at the spread-0 structural corner with the
// false-alarm and manager-attack channels disabled so the full chain
// stays generateable for the comparison. Analytic saturates the intrusion
// counter, as the exact path requires.
func benchITUAParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 1
	p.NumApps = 1
	p.RepsPerApp = 2
	p.CorruptionMult = 5
	p.DomainSpreadRate = 0
	p.SystemSpreadRate = 0
	p.TotalFalseAlarmRate = 0
	p.AttackSplitMgr = 0
	p.Analytic = true
	return p
}

const benchITUAMaxStates = 1 << 23

func buildITUABench(tb testing.TB) (*core.Model, Canonicalizer) {
	tb.Helper()
	m, err := core.Build(benchITUAParams())
	if err != nil {
		tb.Fatal(err)
	}
	canon := core.NewCanonicalizer(m)
	if canon == nil {
		tb.Fatal("benchmark topology must admit a canonicalizer")
	}
	return m, canon
}

func benchITUAGenerate(b *testing.B, lump bool) {
	m, canon := buildITUABench(b)
	opts := Options{MaxStates: benchITUAMaxStates}
	if lump {
		opts.Canon = canon
	}
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		c, err := Generate(m.SAN, opts)
		if err != nil {
			b.Fatal(err)
		}
		states = c.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkMCITUAGenerateFull(b *testing.B)   { benchITUAGenerate(b, false) }
func BenchmarkMCITUAGenerateLumped(b *testing.B) { benchITUAGenerate(b, true) }

// benchITUASolve is the end-to-end analytic pipeline: generation plus the
// exact 10-hour interval unavailability (IntervalAverageReward, the
// solver lane with steady-state early exit) on application 0.
func benchITUASolve(b *testing.B, lump bool) {
	m, canon := buildITUABench(b)
	opts := Options{MaxStates: benchITUAMaxStates}
	if lump {
		opts.Canon = canon
	}
	improper := m.Improper(0)
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		c, err := Generate(m.SAN, opts)
		if err != nil {
			b.Fatal(err)
		}
		states = c.NumStates()
		if _, err := c.IntervalAverageReward(10, func(s *san.State) float64 {
			if improper(s) {
				return 1
			}
			return 0
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkMCITUASolveFull(b *testing.B)   { benchITUASolve(b, false) }
func BenchmarkMCITUASolveLumped(b *testing.B) { benchITUASolve(b, true) }

// BenchmarkUniStep is the uniformization kernel alone: one step of the
// uniformized DTMC on the bench4x1 quotient (39,062 states), at the
// default worker count. It reports the step time and the time per
// transition, the matvec's unit of work.
func BenchmarkUniStep(b *testing.B) {
	m, canon := buildITUABench(b)
	c, err := Generate(m.SAN, Options{Canon: canon})
	if err != nil {
		b.Fatal(err)
	}
	op, _ := c.uniOperator(nil)
	defer op.stop()
	v := c.InitialDistribution()
	out := make([]float64, len(v))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.apply(v, out)
		v, out = out, v
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns, "ns/step")
	b.ReportMetric(ns/float64(c.NumTransitions()), "ns/transition")
}

// absorbedSink keeps BenchmarkFirstPassage's increments live.
var absorbedSink float64

// BenchmarkFirstPassage is one step of FirstPassageProb's absorbing walk on
// the bench4x1 quotient with application 0's Byzantine states absorbing:
// the survivor operator's matvec plus the absorbed-mass increment, at the
// default worker count. It reports the step time and the operator's size,
// the surviving states and the transitions between them.
func BenchmarkFirstPassage(b *testing.B) {
	m, canon := buildITUABench(b)
	c, err := Generate(m.SAN, Options{Canon: canon})
	if err != nil {
		b.Fatal(err)
	}
	op, _ := c.uniOperator(c.statesWhere(m.Byzantine(0)))
	defer op.stop()
	init := c.InitialDistribution()
	v := make([]float64, op.n)
	for j, i := range op.keep {
		v[j] = init[i]
	}
	out := make([]float64, op.n)
	absorbed := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.apply(v, out)
		absorbed += dot(v, op.toBad)
		v, out = out, v
	}
	absorbedSink = absorbed
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
	b.ReportMetric(float64(op.n), "surviving_states")
	b.ReportMetric(float64(len(op.tCols)), "surviving_transitions")
}
