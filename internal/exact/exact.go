// Package exact evaluates the paper's measures numerically: it converts a
// core ITUA configuration to a CTMC (internal/mc) and computes interval
// unavailability, unreliability, and the exclusion fraction by
// uniformization — no sampling, no confidence intervals. This is the
// third, strongest arm of the validation triangle next to the SAN engine
// and the direct simulator: on configurations small enough to generate,
// both simulators' estimates must bracket these values.
//
// The solver forces Params.Analytic, which saturates the intrusions
// counter at 1 so the reachable state space is finite; every guard and
// measure only tests intrusions == 0, so the simulated and analytic
// models agree on all observables (core.Params.Analytic documents the
// argument).
//
// By default the solver generates the symmetry-lumped quotient chain
// (core.NewCanonicalizer): hosts within a domain and whole domains are
// exchangeable, so the full chain's orbits collapse into single states and
// multi-host topologies that are far beyond MaxStates become solvable.
// Every measure this package computes is orbit-invariant (Improper,
// Byzantine, and DomainsExcluded read only permutation-transported
// counts), so the quotient yields bit-accurate answers in the sense of
// ordinary lumpability. Configurations the canonicalizer refuses
// (least-loaded placement, single-host topologies) fall back to the full
// chain automatically; Options.NoLump forces the full chain everywhere,
// which the equivalence tests use.
package exact

import (
	"errors"
	"fmt"
	"sync"

	"ituaval/internal/core"
	"ituaval/internal/mc"
	"ituaval/internal/san"
)

// Options configures chain generation for the solver.
type Options struct {
	// MaxStates aborts generation beyond this many states (0 = mc default).
	MaxStates int
	// Workers is the generation and solve parallelism (0 = GOMAXPROCS).
	Workers int
	// NoLump disables symmetry lumping and generates the full chain even
	// when the configuration is symmetric. Measures are unchanged (ordinary
	// lumpability); only the state count and runtime differ.
	NoLump bool
}

// Solver holds a generated chain together with the model handles the
// measure definitions need. Methods are safe to call repeatedly and
// concurrently. Unavailability and FracDomainsExcluded read the same
// uniformization walk of the unabsorbed chain — the distribution and the
// occupancy at the horizon — and the Solver keeps the last horizon's walk,
// so asking both (for any applications) at one horizon costs one walk.
// Unreliability runs its own walk on the chain with the Byzantine states
// absorbing.
type Solver struct {
	M *core.Model
	C *mc.CTMC
	// Lumped reports whether the chain is the symmetry quotient rather
	// than the full chain.
	Lumped bool

	mu      sync.Mutex
	walkT   float64   // horizon of the cached walk
	pi, occ []float64 // π(walkT) and occ(walkT); nil before the first walk
}

// NewSolver builds the composed ITUA model for p (with Analytic forced
// on) and generates its CTMC — the symmetry-lumped quotient when the
// configuration admits one and opts.NoLump is unset. Configurations that
// are too large surface as the mc.Generate MaxStates error.
func NewSolver(p core.Params, opts Options) (*Solver, error) {
	p.Analytic = true
	m, err := core.Build(p)
	if err != nil {
		return nil, err
	}
	mcOpts := mc.Options{MaxStates: opts.MaxStates, Workers: opts.Workers}
	lumped := false
	if !opts.NoLump {
		if canon := core.NewCanonicalizer(m); canon != nil {
			mcOpts.Canon = canon
			lumped = true
		}
	}
	c, err := mc.Generate(m.SAN, mcOpts)
	if err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	return &Solver{M: m, C: c, Lumped: lumped}, nil
}

// indicator lifts a predicate to a 0/1 rate reward.
func indicator(pred func(*san.State) bool) func(*san.State) float64 {
	return func(s *san.State) float64 {
		if pred(s) {
			return 1
		}
		return 0
	}
}

// walk returns the unabsorbed chain's distribution π(T) and occupancy
// occ(T), reusing the last horizon's walk. The returned slices are never
// written after they are cached.
func (s *Solver) walk(T float64) (pi, occ []float64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pi != nil && s.walkT == T {
		return s.pi, s.occ, nil
	}
	if pi, occ, err = s.C.TransientOccupancy(T); err != nil {
		return nil, nil, err
	}
	s.walkT, s.pi, s.occ = T, pi, occ
	return pi, occ, nil
}

// Unavailability is the expected fraction of [0, T] during which
// application app's service is improper — the exact value of
// core.Model.Unavailability: occ(T)·r / T for the improper indicator r.
func (s *Solver) Unavailability(app int, T float64) (float64, error) {
	if T <= 0 {
		return 0, errors.New("exact: non-positive interval")
	}
	_, occ, err := s.walk(T)
	if err != nil {
		return 0, err
	}
	return s.C.Reward(occ, indicator(s.M.Improper(app))) / T, nil
}

// Unreliability is the probability that application app suffers a
// Byzantine fault at least once in [0, T] — the exact value of
// core.Model.Unreliability.
func (s *Solver) Unreliability(app int, T float64) (float64, error) {
	return s.C.FirstPassageProb(T, s.M.Byzantine(app))
}

// FracDomainsExcluded is the expected fraction of security domains
// excluded by time T — the exact value of core.Model.FracDomainsExcluded:
// π(T)·r for the excluded fraction r.
func (s *Solver) FracDomainsExcluded(T float64) (float64, error) {
	if T < 0 {
		return 0, errors.New("exact: negative time")
	}
	pi, _, err := s.walk(T)
	if err != nil {
		return 0, err
	}
	excluded := s.M.DomainsExcluded
	n := float64(s.M.Params.NumDomains)
	return s.C.Reward(pi, func(st *san.State) float64 {
		return float64(st.Get(excluded)) / n
	}), nil
}
