package mc

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/san"
	"ituaval/internal/sim"
)

func buildMM1K(t *testing.T, lambda, mu float64, k int) (*san.Model, *san.Place) {
	t.Helper()
	m := san.NewModel("mm1k")
	q := m.Place("q", 0)
	m.AddActivity(san.ActivityDef{
		Name: "arrive", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(lambda) },
		Enabled: func(s *san.State) bool { return s.Int(q) < k },
		Reads:   []*san.Place{q},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(q, 1) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "serve", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(mu) },
		Enabled: func(s *san.State) bool { return s.Get(q) > 0 },
		Reads:   []*san.Place{q},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(q, -1) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, q
}

func TestGenerateMM1K(t *testing.T) {
	m, _ := buildMM1K(t, 2, 3, 5)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 6 {
		t.Fatalf("states = %d, want 6", c.NumStates())
	}
	// Birth-death: 5 up + 5 down transitions.
	if c.NumTransitions() != 10 {
		t.Fatalf("transitions = %d, want 10", c.NumTransitions())
	}
}

func TestSteadyStateMM1K(t *testing.T) {
	const lambda, mu, k = 2.0, 3.0, 5
	m, q := buildMM1K(t, lambda, mu, k)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SteadyStateReward(func(s *san.State) float64 { return float64(s.Get(q)) }, 1e-13, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic mean queue length.
	rho := lambda / mu
	norm, mean := 0.0, 0.0
	for n := 0; n <= k; n++ {
		p := math.Pow(rho, float64(n))
		norm += p
		mean += float64(n) * p
	}
	mean /= norm
	if math.Abs(got-mean) > 1e-8 {
		t.Fatalf("steady-state length %v, analytic %v", got, mean)
	}
}

func buildTwoState(t *testing.T, lambda, mu float64) (*san.Model, *san.Place) {
	t.Helper()
	m := san.NewModel("twostate")
	up := m.Place("up", 1)
	m.AddActivity(san.ActivityDef{
		Name: "fail", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(lambda) },
		Enabled: func(s *san.State) bool { return s.Get(up) == 1 },
		Reads:   []*san.Place{up},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(up, 0) }}},
	})
	m.AddActivity(san.ActivityDef{
		Name: "repair", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(mu) },
		Enabled: func(s *san.State) bool { return s.Get(up) == 0 },
		Reads:   []*san.Place{up},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(up, 1) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, up
}

func TestTransientTwoState(t *testing.T) {
	const lambda, mu = 0.5, 2.0
	m, up := buildTwoState(t, lambda, mu)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := lambda + mu
	upR := c.RewardVector(func(st *san.State) float64 { return float64(st.Get(up)) })
	for _, tt := range []float64{0, 0.1, 0.5, 1, 3, 10} {
		want := mu/s + lambda/s*math.Exp(-s*tt) // P(up at tt)
		got, err := c.TransientReward(tt, func(st *san.State) float64 { return float64(st.Get(up)) })
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("P(up at %v) = %v, analytic %v", tt, got, want)
		}

		// The occupancy walk: π is Transient's distribution bit for bit,
		// the occupancies sum to the horizon, and the up-occupancy is
		// ∫₀ᵗ P(up at u) du = μt/s + (λ/s²)(1 − e^{−st}).
		pi, occ, err := c.TransientOccupancy(tt)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := c.Transient(tt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dist {
			if math.Float64bits(pi[i]) != math.Float64bits(dist[i]) {
				t.Fatalf("t=%v: occupancy walk π[%d] = %v, Transient %v (not bit-identical)", tt, i, pi[i], dist[i])
			}
		}
		if sum := dot(occ, []float64{1, 1}); math.Abs(sum-tt) > 1e-12 {
			t.Fatalf("t=%v: Σ occ = %.17g, want the horizon", tt, sum)
		}
		wantOcc := mu*tt/s + lambda/(s*s)*(1-math.Exp(-s*tt))
		if gotOcc := dot(occ, upR); math.Abs(gotOcc-wantOcc) > 1e-9 {
			t.Fatalf("t=%v: up-occupancy %v, analytic %v", tt, gotOcc, wantOcc)
		}
	}
}

func TestIntervalAverageTwoState(t *testing.T) {
	const lambda, mu, T = 0.5, 2.0, 8.0
	m, up := buildTwoState(t, lambda, mu)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := lambda + mu
	// Average unavailability over [0,T], starting up.
	want := lambda / s * (1 - (1-math.Exp(-s*T))/(s*T))
	got, err := c.IntervalAverageReward(T, func(st *san.State) float64 {
		if st.Get(up) == 0 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("interval unavailability %v, analytic %v", got, want)
	}
}

func TestFirstPassageTwoState(t *testing.T) {
	const lambda, mu, T = 0.3, 5.0, 4.0
	m, up := buildTwoState(t, lambda, mu)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.FirstPassageProb(T, func(st *san.State) bool { return st.Get(up) == 0 })
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-lambda*T)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("first passage %v, analytic %v", got, want)
	}
}

// buildBranching exercises cases, instantaneous races, and marking-dependent
// rates: jobs arrive (rate 2) and branch 30/70 into two queues via an
// instantaneous dispatcher race; each queue serves at a rate that grows with
// its length.
func buildBranching(t *testing.T) (*san.Model, *san.Place, *san.Place) {
	t.Helper()
	m := san.NewModel("branching")
	pending := m.Place("pending", 0)
	q1 := m.Place("q1", 0)
	q2 := m.Place("q2", 0)
	const cap = 4
	m.AddActivity(san.ActivityDef{
		Name: "arrive", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(2) },
		Enabled: func(s *san.State) bool { return s.Int(q1)+s.Int(q2)+s.Int(pending) < cap },
		Reads:   []*san.Place{q1, q2, pending},
		Cases: []san.Case{
			{Prob: 0.3, Effect: func(ctx *san.Context) { ctx.State.Add(pending, 1) }},
			{Prob: 0.7, Effect: func(ctx *san.Context) { ctx.State.Add(q2, 1) }},
		},
	})
	m.AddActivity(san.ActivityDef{
		Name: "dispatch", Kind: san.Instant,
		Enabled: func(s *san.State) bool { return s.Get(pending) > 0 },
		Reads:   []*san.Place{pending},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			ctx.State.Add(pending, -1)
			ctx.State.Add(q1, 1)
		}}},
	})
	for i, q := range []*san.Place{q1, q2} {
		q := q
		name := []string{"serve1", "serve2"}[i]
		m.AddActivity(san.ActivityDef{
			Name: name, Kind: san.Timed,
			Dist: func(s *san.State) rng.Dist {
				return rng.Expo(1.5 * float64(s.Get(q))) // marking-dependent
			},
			Enabled: func(s *san.State) bool { return s.Get(q) > 0 },
			Reads:   []*san.Place{q},
			Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Add(q, -1) }}},
		})
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m, q1, q2
}

func TestSimulatorMatchesNumericalSolution(t *testing.T) {
	// The central methodological cross-check: the discrete-event simulator
	// and the numerical CTMC solver must agree on a model that uses cases,
	// instantaneous activities, and marking-dependent exponential rates.
	m, q1, q2 := buildBranching(t)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const T = 6.0
	total := func(s *san.State) float64 { return float64(s.Get(q1) + s.Get(q2)) }
	wantAvg, err := c.IntervalAverageReward(T, total)
	if err != nil {
		t.Fatal(err)
	}
	wantAt, err := c.TransientReward(T, total)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Spec{
		Model: m, Until: T, Reps: 6000, Seed: 77, Validate: true,
		Vars: []reward.Var{
			&reward.TimeAverage{VarName: "avg", F: total, From: 0, To: T},
			&reward.AtTime{VarName: "at", F: total, T: T},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	avg := res.MustGet("avg")
	if math.Abs(avg.Mean-wantAvg) > 3*avg.HalfWidth95 {
		t.Fatalf("sim avg %v ± %v vs numeric %v", avg.Mean, avg.HalfWidth95, wantAvg)
	}
	at := res.MustGet("at")
	if math.Abs(at.Mean-wantAt) > 3*at.HalfWidth95 {
		t.Fatalf("sim at-T %v ± %v vs numeric %v", at.Mean, at.HalfWidth95, wantAt)
	}
}

func TestGenerateRejectsNonExponential(t *testing.T) {
	m := san.NewModel("det")
	p := m.Place("p", 1)
	m.AddActivity(san.ActivityDef{
		Name: "tick", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Deterministic{V: 1} },
		Enabled: func(s *san.State) bool { return s.Get(p) > 0 },
		Reads:   []*san.Place{p},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(p, 0) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(m, Options{}); !errors.Is(err, ErrNotMarkovian) {
		t.Fatalf("err = %v, want ErrNotMarkovian", err)
	}
}

func TestGenerateRejectsRandomGate(t *testing.T) {
	m := san.NewModel("rand")
	p := m.Place("p", 1)
	m.AddActivity(san.ActivityDef{
		Name: "tick", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(1) },
		Enabled: func(s *san.State) bool { return s.Get(p) > 0 },
		Reads:   []*san.Place{p},
		Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
			if ctx.Rand.Bernoulli(0.5) { // illegal in analytic mode
				ctx.State.Set(p, 0)
			}
		}}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(m, Options{}); !errors.Is(err, ErrRandomGate) {
		t.Fatalf("err = %v, want ErrRandomGate", err)
	}
}

func TestGenerateMaxStates(t *testing.T) {
	m, _ := buildMM1K(t, 1, 1, 50)
	_, err := Generate(m, Options{MaxStates: 10})
	if err == nil {
		t.Fatal("expected state-space bound error")
	}
	// The bound is enforced at intern time — the 11th distinct marking
	// trips it — and the error names the model, the configured cap, the
	// state count reached, and the offending marking, so oversized
	// configurations are diagnosable and -max-states can be sized without
	// trial and error.
	msg := err.Error()
	if !strings.Contains(msg, "MaxStates=10") {
		t.Fatalf("error does not name the configured cap: %q", msg)
	}
	if !strings.Contains(msg, "11 states interned") {
		t.Fatalf("error does not report the offending state count: %q", msg)
	}
	if !strings.Contains(msg, `model "mm1k"`) {
		t.Fatalf("error does not name the model topology: %q", msg)
	}
	if !strings.Contains(msg, "offending marking") || !strings.Contains(msg, "[10]") {
		t.Fatalf("error does not carry the offending marking: %q", msg)
	}
}

func TestGenerateRequiresFinalized(t *testing.T) {
	if _, err := Generate(san.NewModel("x"), Options{}); err == nil {
		t.Fatal("unfinalized model accepted")
	}
}

func TestAbsorbingChainSteadyState(t *testing.T) {
	// One-way decay: up -> down, no repair. Steady state is all mass down.
	m := san.NewModel("decay")
	up := m.Place("up", 1)
	m.AddActivity(san.ActivityDef{
		Name: "fail", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(3) },
		Enabled: func(s *san.State) bool { return s.Get(up) == 1 },
		Reads:   []*san.Place{up},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(up, 0) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SteadyStateReward(func(s *san.State) float64 { return float64(s.Get(up)) }, 1e-13, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-10 {
		t.Fatalf("steady-state P(up) = %v, want 0", got)
	}
}

func TestInitialDistributionFromInstantRace(t *testing.T) {
	// Init leaves a token that an instantaneous race claims two ways with
	// weights 1:3, giving initial distribution {0.25, 0.75}.
	m := san.NewModel("initrace")
	token := m.Place("token", 1)
	which := m.Place("which", 0)
	sink := m.Place("sink", 0)
	for i, w := range []float64{1, 3} {
		i := i
		m.AddActivity(san.ActivityDef{
			Name: []string{"left", "right"}[i], Kind: san.Instant, Weight: w,
			Enabled: func(s *san.State) bool { return s.Get(token) > 0 },
			Reads:   []*san.Place{token},
			Cases: []san.Case{{Prob: 1, Effect: func(ctx *san.Context) {
				ctx.State.Add(token, -1)
				ctx.State.Set(which, san.Marking(i+1))
			}}},
		})
	}
	// A do-nothing timed activity so the chain is non-trivial.
	m.AddActivity(san.ActivityDef{
		Name: "noop", Kind: san.Timed,
		Dist:    func(*san.State) rng.Dist { return rng.Expo(1) },
		Enabled: func(s *san.State) bool { return s.Get(sink) == 0 },
		Reads:   []*san.Place{sink},
		Cases:   []san.Case{{Prob: 1, Effect: func(ctx *san.Context) { ctx.State.Set(sink, 1) }}},
	})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.TransientReward(0, func(s *san.State) float64 {
		if s.Get(which) == 2 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("P(which=2 at 0) = %v, want 0.75", got)
	}
}
