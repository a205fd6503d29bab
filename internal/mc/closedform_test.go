package mc

import (
	"errors"
	"math"
	"testing"

	"ituaval/internal/rng"
	"ituaval/internal/san"
)

// buildPureBirth counts arrivals at rate r up to cap k: at time t the
// count is Poisson(rt) truncated at k, a closed form with no steady
// state, so the transient solve cannot lean on steady-state detection —
// it exercises the Fox–Glynn window (including left truncation, since
// Λt is large) end to end.
func buildPureBirth(r float64, k int) *san.Model {
	m := san.NewModel("purebirth")
	q := m.Place("q", 0)
	m.AddActivity(san.ActivityDef{
		Name: "arrive", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(r) },
		Enabled: func(s *san.State) bool { return s.Int(q) < k },
		Reads:   []*san.Place{q},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(q, 1) }}},
	})
	if err := m.Finalize(); err != nil {
		panic(err)
	}
	return m
}

// poissonPMF computes P(N=n) for N ~ Poisson(mu) via the stable
// log-space form.
func poissonPMF(mu float64, n int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	return math.Exp(-mu + float64(n)*math.Log(mu) - lg)
}

// TestTransientPureBirthClosedForm checks the full transient pipeline at
// a large Λt (~1530 uniformized steps) against the exact Poisson law of
// the counting process. The cap sits ~7.7 standard deviations above the
// mean, so truncation at the cap contributes less than the solver's own
// 1e-12 mass tolerance.
func TestTransientPureBirthClosedForm(t *testing.T) {
	const r, tt = 1.0, 1500.0
	const k = 1800
	c, err := Generate(buildPureBirth(r, k), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != k+1 {
		t.Fatalf("states = %d, want %d", c.NumStates(), k+1)
	}
	dist, err := c.Transient(tt)
	if err != nil {
		t.Fatal(err)
	}
	// State index == count: BFS from the empty marking numbers them in
	// arrival order.
	worst := 0.0
	for n := 0; n < k; n++ {
		if d := math.Abs(dist[n] - poissonPMF(r*tt, n)); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Fatalf("max |transient - Poisson pmf| = %g, want <= 1e-9", worst)
	}
}

// TestTransientLargeHorizonMatchesStationary solves an M/M/1/K transient
// at Λt ≈ 25500 — far past mixing — and checks the mean queue length
// against the geometric stationary closed form. Without steady-state
// detection this is a 25500-step iteration; with it the loop exits after
// mixing, and the answer must still be the stationary one.
func TestTransientLargeHorizonMatchesStationary(t *testing.T) {
	const lambda, mu, k = 2.0, 3.0, 30
	m, q := buildMM1K(t, lambda, mu, k)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.TransientReward(5000, func(s *san.State) float64 { return float64(s.Get(q)) })
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	norm, mean := 0.0, 0.0
	for n := 0; n <= k; n++ {
		p := math.Pow(rho, float64(n))
		norm += p
		mean += float64(n) * p
	}
	mean /= norm
	if math.Abs(got-mean) > 1e-8 {
		t.Fatalf("transient mean at large t = %v, stationary closed form %v", got, mean)
	}

	// The occupancy walk exits at steady state too; the tail weights it
	// skips are added in closed form, so the occupancies still sum to the
	// horizon.
	_, occ, err := c.TransientOccupancy(5000)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, o := range occ {
		sum += o
	}
	if math.Abs(sum-5000) > 1e-12*5000 {
		t.Fatalf("Σ occ at t=5000 = %.17g, want the horizon", sum)
	}
}

// TestPoissonTruncationError: when Λt is so large that the Poisson
// window cannot reach mass 1-eps within its growth cap, the solver must
// fail loudly with ErrPoissonTruncation — through every entry point —
// instead of silently truncating like the old implementation did.
func TestPoissonTruncationError(t *testing.T) {
	if _, err := newPoissonWindow(1e14, 1e-12); !errors.Is(err, ErrPoissonTruncation) {
		t.Fatalf("newPoissonWindow(1e14): err = %v, want ErrPoissonTruncation", err)
	}
	m, up := buildTwoState(t, 0.5, 2.0)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const huge = 1e14
	if _, err := c.Transient(huge); !errors.Is(err, ErrPoissonTruncation) {
		t.Fatalf("Transient: err = %v, want ErrPoissonTruncation", err)
	}
	if _, err := c.TransientReward(huge, func(*san.State) float64 { return 1 }); !errors.Is(err, ErrPoissonTruncation) {
		t.Fatalf("TransientReward: err = %v, want ErrPoissonTruncation", err)
	}
	if _, err := c.FirstPassageProb(huge, func(s *san.State) bool { return s.Get(up) == 0 }); !errors.Is(err, ErrPoissonTruncation) {
		t.Fatalf("FirstPassageProb: err = %v, want ErrPoissonTruncation", err)
	}
	if _, err := c.IntervalAverageReward(huge, func(*san.State) float64 { return 1 }); !errors.Is(err, ErrPoissonTruncation) {
		t.Fatalf("IntervalAverageReward: err = %v, want ErrPoissonTruncation", err)
	}
}
