package ituadirect

import (
	"context"
	"math"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

func testParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 2
	p.NumApps = 3
	p.RepsPerApp = 4
	return p
}

func TestNoAttacksNoDamage(t *testing.T) {
	p := testParams()
	p.TotalAttackRate = 0
	p.TotalFalseAlarmRate = 0
	res, err := Run(p, rng.New(1), []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnavailTime[0] != 0 || res.UnavailTime[1] != 0 {
		t.Fatalf("unavailability with no attacks: %v", res.UnavailTime)
	}
	if res.ByzantineBy[1] || res.FracDomainsExcluded[1] != 0 {
		t.Fatal("damage with no attacks")
	}
	if res.RunningAtEnd != p.RepsPerApp {
		t.Fatalf("running = %d", res.RunningAtEnd)
	}
}

func TestRunValidation(t *testing.T) {
	p := testParams()
	p.NumDomains = 0
	if _, err := Run(p, rng.New(1), []float64{1}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := Run(testParams(), rng.New(1), nil); err == nil {
		t.Fatal("empty horizons accepted")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := testParams()
	a, err := Run(p, rng.New(99), []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, rng.New(99), []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if a.UnavailTime[0] != b.UnavailTime[0] || a.RunningAtEnd != b.RunningAtEnd {
		t.Fatal("same seed produced different trajectories")
	}
}

func TestStateConsistencyAfterRun(t *testing.T) {
	// White-box: after many runs, internal counters must match recounts.
	root := rng.New(7)
	for i := 0; i < 200; i++ {
		p := testParams()
		if i%2 == 1 {
			p.Policy = core.HostExclusion
		}
		s := newProcess(p, root.Derive(uint64(i)), Opts{CRN: i%4 >= 2})
		if _, err := s.run(context.Background(), []float64{8}); err != nil {
			t.Fatal(err)
		}
		for a := range s.onHost {
			running, undet := 0, 0
			for r := range s.onHost[a] {
				g := s.onHost[a][r]
				if g < 0 {
					continue
				}
				running++
				if s.hostExcluded[g] {
					t.Fatalf("rep %d/%d on excluded host", a, r)
				}
				if s.repCorrupt[a][r] && !s.repConvicted[a][r] {
					undet++
				}
			}
			if running != s.running[a] || undet != s.undet[a] {
				t.Fatalf("rep %d: counted running=%d undet=%d, tracked %d/%d",
					a, running, undet, s.running[a], s.undet[a])
			}
		}
		for d := range s.domExcluded {
			if !s.domExcluded[d] {
				continue
			}
			for h := 0; h < p.HostsPerDomain; h++ {
				if !s.hostExcluded[d*p.HostsPerDomain+h] {
					t.Fatal("excluded domain has live host")
				}
			}
		}
	}
}

// aggregate runs the direct simulator nReps times and returns accumulators
// for unavailability over [0,T], unreliability by T, and fraction of
// domains excluded at T.
func aggregate(t *testing.T, p core.Params, nReps int, T float64, seed uint64) (unavail, unrel, excl, corrFrac *stats.Accumulator) {
	t.Helper()
	root := rng.New(seed)
	unavail, unrel, excl, corrFrac = &stats.Accumulator{}, &stats.Accumulator{}, &stats.Accumulator{}, &stats.Accumulator{}
	for i := 0; i < nReps; i++ {
		res, err := Run(p, root.Derive(uint64(i)), []float64{T})
		if err != nil {
			t.Fatal(err)
		}
		unavail.Add(res.UnavailTime[0] / T)
		if res.ByzantineBy[0] {
			unrel.Add(1)
		} else {
			unrel.Add(0)
		}
		excl.Add(res.FracDomainsExcluded[0])
		if !math.IsNaN(res.CorruptFracAtExclusion) {
			corrFrac.Add(res.CorruptFracAtExclusion)
		}
	}
	return unavail, unrel, excl, corrFrac
}

// TestAgreesWithSANModel is the X1 cross-validation experiment: the SAN
// encoding (internal/core + internal/sim) and this direct SSA encoding of
// the ITUA process must agree on every measure within statistical error.
func TestAgreesWithSANModel(t *testing.T) {
	for _, policy := range []core.Policy{core.DomainExclusion, core.HostExclusion} {
		p := testParams()
		p.Policy = policy
		const T, reps = 6.0, 3000

		m, err := core.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		sanRes, err := sim.Run(sim.Spec{
			Model: m.SAN, Until: T, Reps: reps, Seed: 1001,
			Vars: []reward.Var{
				m.Unavailability("unavail", 0, 0, T),
				m.Unreliability("unrel", 0, T),
				m.FracDomainsExcluded("excl", T),
				m.FracCorruptHostsAtExclusion("corrfrac", T),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		dUnavail, dUnrel, dExcl, dCorr := aggregate(t, p, reps, T, 2002)

		compare := func(name string, san sim.Estimate, direct *stats.Accumulator) {
			t.Helper()
			if direct.N() == 0 && san.N == 0 {
				return
			}
			tol := 3*(san.HalfWidth95+direct.HalfWidth(0.95)) + 0.01
			if diff := math.Abs(san.Mean - direct.Mean()); diff > tol {
				t.Errorf("%s policy %v: SAN %v vs direct %v (diff %v > tol %v)",
					name, policy, san.Mean, direct.Mean(), diff, tol)
			}
		}
		compare("unavailability", sanRes.MustGet("unavail"), dUnavail)
		compare("unreliability", sanRes.MustGet("unrel"), dUnrel)
		compare("fracDomainsExcluded", sanRes.MustGet("excl"), dExcl)
		if policy == core.DomainExclusion {
			compare("corruptFracAtExclusion", sanRes.MustGet("corrfrac"), dCorr)
		}
	}
}

func TestAgreementUnderStress(t *testing.T) {
	// High spread + host exclusion, the regime of study 3.
	p := testParams()
	p.Policy = core.HostExclusion
	p.DomainSpreadRate = 8
	p.CorruptionMult = 5
	const T, reps = 6.0, 3000

	m, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	sanRes, err := sim.Run(sim.Spec{
		Model: m.SAN, Until: T, Reps: reps, Seed: 31,
		Vars: []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dUnavail, dUnrel, _, _ := aggregate(t, p, reps, T, 32)
	for _, c := range []struct {
		name   string
		san    sim.Estimate
		direct *stats.Accumulator
	}{
		{"unavailability", sanRes.MustGet("unavail"), dUnavail},
		{"unreliability", sanRes.MustGet("unrel"), dUnrel},
	} {
		tol := 3*(c.san.HalfWidth95+c.direct.HalfWidth(0.95)) + 0.01
		if diff := math.Abs(c.san.Mean - c.direct.Mean()); diff > tol {
			t.Errorf("%s: SAN %v vs direct %v (diff %v > tol %v)",
				c.name, c.san.Mean, c.direct.Mean(), diff, tol)
		}
	}
}
