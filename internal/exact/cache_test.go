package exact

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/san"
)

// cacheSolver generates a small symmetric two-application configuration:
// two exchangeable one-host domains, one replica per application, spread,
// false alarms and manager attacks off, slow recovery.
func cacheSolver(t *testing.T) *Solver {
	t.Helper()
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 2, 1, 2, 1
	p.CorruptionMult = 5
	p.DomainSpreadRate, p.SystemSpreadRate = 0, 0
	p.TotalFalseAlarmRate = 0
	p.AttackSplitMgr = 0
	p.RecoveryRate = 2 // keeps the uniformization rate, and each walk, short
	s, err := NewSolver(p, Options{MaxStates: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("states=%d transitions=%d lumped=%v", s.C.NumStates(), s.C.NumTransitions(), s.Lumped)
	return s
}

// fresh is a Solver on s's chain with nothing cached.
func fresh(s *Solver) *Solver { return &Solver{M: s.M, C: s.C, Lumped: s.Lumped} }

// measure names one of the three measures, for one application where the
// measure takes one.
type measure struct {
	name string
	app  int
}

func (m measure) solve(s *Solver, T float64) (float64, error) {
	switch m.name {
	case "unavail":
		return s.Unavailability(m.app, T)
	case "unrel":
		return s.Unreliability(m.app, T)
	default:
		return s.FracDomainsExcluded(T)
	}
}

func (m measure) String() string { return fmt.Sprintf("%s(app=%d)", m.name, m.app) }

// permutations returns every ordering of xs.
func permutations(xs []string) [][]string {
	if len(xs) <= 1 {
		return [][]string{append([]string(nil), xs...)}
	}
	var out [][]string
	for i := range xs {
		rest := append(append([]string(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{xs[i]}, p...))
		}
	}
	return out
}

// TestSolverCacheBitIdentical asks the three measures in every order, with
// the two horizons interleaved, for both applications, on one Solver per
// order: every value must be bit-identical to a Solver with nothing cached
// asked that one measure alone. A stale or mismatched cached walk would
// show up as a wrong horizon's value.
func TestSolverCacheBitIdentical(t *testing.T) {
	s := cacheSolver(t)
	horizons := []float64{5, 10}
	want := make(map[string]float64)
	key := func(m measure, T float64) string { return fmt.Sprintf("%v@%g", m, T) }
	for _, name := range []string{"unavail", "unrel", "excl"} {
		for app := 0; app < 2; app++ {
			for _, T := range horizons {
				m := measure{name, app}
				v, err := m.solve(fresh(s), T)
				if err != nil {
					t.Fatal(err)
				}
				want[key(m, T)] = v
			}
		}
	}
	if want["unavail(app=0)@10"] == want["unavail(app=0)@5"] {
		t.Fatal("the two horizons give the same unavailability; the test could not see a stale walk")
	}
	for _, order := range permutations([]string{"unavail", "unrel", "excl"}) {
		shared := fresh(s)
		// Horizons alternate call by call: 5, 10, 5, 10, ... across the
		// measures in this order and both applications.
		call := 0
		for _, name := range order {
			for app := 0; app < 2; app++ {
				for range horizons {
					m, T := measure{name, app}, horizons[call%2]
					call++
					got, err := m.solve(shared, T)
					if err != nil {
						t.Fatal(err)
					}
					if w := want[key(m, T)]; math.Float64bits(got) != math.Float64bits(w) {
						t.Errorf("order %v: %v at T=%g = %.17g, alone %.17g", order, m, T, got, w)
					}
				}
			}
		}
		// And each measure twice at one horizon, then the other.
		for _, T := range horizons {
			for _, name := range order {
				for app := 0; app < 2; app++ {
					m := measure{name, app}
					got, err := m.solve(shared, T)
					if err != nil {
						t.Fatal(err)
					}
					if w := want[key(m, T)]; math.Float64bits(got) != math.Float64bits(w) {
						t.Errorf("order %v, blocked by horizon: %v at T=%g = %.17g, alone %.17g", order, m, T, got, w)
					}
				}
			}
		}
	}
}

// TestSolverConcurrentMeasures calls all three measures from four
// goroutines on one Solver, at two horizons; under -race this checks the
// cache's locking, and every value must match a Solver asked alone.
func TestSolverConcurrentMeasures(t *testing.T) {
	s := cacheSolver(t)
	horizons := []float64{5, 10}
	ms := []measure{{"unavail", 0}, {"unavail", 1}, {"unrel", 0}, {"excl", 0}}
	want := make([][]float64, len(ms))
	for i, m := range ms {
		for _, T := range horizons {
			v, err := m.solve(fresh(s), T)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], v)
		}
	}
	shared := fresh(s)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for j := range ms {
					i := (j + g) % len(ms)
					h := (g + round + j) % len(horizons)
					got, err := ms[i].solve(shared, horizons[h])
					if err != nil {
						t.Error(err)
						return
					}
					if math.Float64bits(got) != math.Float64bits(want[i][h]) {
						t.Errorf("goroutine %d: %v at T=%g = %.17g, alone %.17g",
							g, ms[i], horizons[h], got, want[i][h])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSolverErrorContract: the horizon checks do not depend on the cache.
// Unavailability needs T > 0 and FracDomainsExcluded T >= 0, before and
// after a walk is cached; FracDomainsExcluded(0) is the initial
// expectation.
func TestSolverErrorContract(t *testing.T) {
	s := cacheSolver(t)
	for _, warm := range []bool{false, true} {
		if warm {
			if _, err := s.Unavailability(0, 5); err != nil {
				t.Fatal(err)
			}
		}
		for _, T := range []float64{0, -1} {
			if _, err := s.Unavailability(0, T); err == nil {
				t.Errorf("warm=%v: Unavailability(T=%g) returned no error", warm, T)
			}
		}
		if _, err := s.FracDomainsExcluded(-1); err == nil {
			t.Errorf("warm=%v: FracDomainsExcluded(T=-1) returned no error", warm)
		}
		got, err := s.FracDomainsExcluded(0)
		if err != nil {
			t.Fatal(err)
		}
		excluded := s.M.DomainsExcluded
		n := float64(s.M.Params.NumDomains)
		want, err := s.C.TransientReward(0, func(st *san.State) float64 {
			return float64(st.Get(excluded)) / n
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("warm=%v: FracDomainsExcluded(0) = %v, initial expectation %v", warm, got, want)
		}
	}
}
