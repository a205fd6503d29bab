package mc

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"ituaval/internal/san"
)

// ErrPoissonTruncation is returned when the Poisson weight window cannot
// reach the requested probability mass — the remaining terms underflow or
// the window would grow beyond any plausible size — so a uniformization
// result at the requested accuracy is not available. The old solver
// silently truncated in this situation; now the error carries through
// Transient, TransientReward, IntervalAverageReward, and
// FirstPassageProb.
var ErrPoissonTruncation = errors.New("mc: Poisson window cannot reach the requested probability mass")

// poissonWindow holds the Fox–Glynn-style truncated Poisson(mu) weights:
// terms[i] ≈ P(N = left+i), computed by the stable two-sided recurrence
// from the mode (p(k+1) = p(k)·mu/(k+1) upward, p(k-1) = p(k)·k/mu
// downward) and extended greedily — one term at a time, largest next term
// first — until geometric bounds show the dropped tails are below eps of
// the retained weight. As in Fox–Glynn the raw weights are treated as
// relative (at large mu the mode term, a difference of huge near-canceling
// logarithms, carries a common relative bias far above eps) and the window
// is normalized by its total, so the retained terms sum to one. Left
// truncation matters at large mu (the uniformized step count is Λt): the
// weights below left underflow and their steps contribute nothing to the
// weighted sum, though the transient loop still has to advance the DTMC
// through them.
type poissonWindow struct {
	left  int
	terms []float64
}

// windowGrowthCap bounds the window extension beyond the mode; reaching it
// means eps is unattainably small for this mu.
const windowGrowthCap = 10_000_000

func newPoissonWindow(mu, eps float64) (*poissonWindow, error) {
	if mu < 0 {
		panic("mc: negative Poisson mean")
	}
	if mu == 0 {
		return &poissonWindow{left: 0, terms: []float64{1}}, nil
	}
	mode := int(mu)
	lg, _ := math.Lgamma(float64(mode + 1))
	pMode := math.Exp(-mu + float64(mode)*math.Log(mu) - lg)
	if pMode == 0 {
		return nil, fmt.Errorf("%w: mode term underflows at mu=%g", ErrPoissonTruncation, mu)
	}
	lo, hi := mode, mode
	pLo, pHi := pMode, pMode
	mass := pMode
	// left side is collected in descending-k order and reversed at the end.
	leftRev := []float64(nil)
	right := []float64(nil)
	for {
		nextLo := 0.0
		if lo > 0 {
			nextLo = pLo * float64(lo) / mu
		}
		nextHi := pHi * mu / float64(hi+1)
		// Terms decay at least geometrically away from the mode, so each
		// dropped tail is bounded by its next term times the geometric
		// ratio's closed form: Σ_{j<lo} p(j) ≤ nextLo/(1-(lo-1)/mu) and
		// Σ_{j>hi} p(j) ≤ nextHi/(1-mu/(hi+2)). Underflowed sides (next
		// term exactly 0) contribute a zero bound: the true mass beyond
		// the underflow point is below 10^-300 of the retained weight.
		tail := 0.0
		if nextLo > 0 {
			tail += nextLo * mu / (mu - float64(lo-1))
		}
		if nextHi > 0 {
			tail += nextHi / (1 - mu/float64(hi+2))
		}
		if tail <= eps*mass {
			break
		}
		if nextLo >= nextHi {
			lo--
			pLo = nextLo
			leftRev = append(leftRev, pLo)
			mass += pLo
		} else {
			hi++
			if hi > mode+windowGrowthCap {
				return nil, fmt.Errorf("%w: window exceeds %d terms at mu=%g (eps=%g)",
					ErrPoissonTruncation, windowGrowthCap, mu, eps)
			}
			pHi = nextHi
			right = append(right, pHi)
			mass += pHi
		}
	}
	terms := make([]float64, 0, len(leftRev)+1+len(right))
	for i := len(leftRev) - 1; i >= 0; i-- {
		terms = append(terms, leftRev[i])
	}
	terms = append(terms, pMode)
	terms = append(terms, right...)
	// Fox–Glynn normalization: the common relative bias of the recurrence
	// divides out, leaving the retained weights summing to one.
	for i := range terms {
		terms[i] /= mass
	}
	return &poissonWindow{left: lo, terms: terms}, nil
}

// prob returns P(N = k) within the window, 0 outside it.
func (w *poissonWindow) prob(k int) float64 {
	i := k - w.left
	if i < 0 || i >= len(w.terms) {
		return 0
	}
	return w.terms[i]
}

// last is the highest k carrying retained mass.
func (w *poissonWindow) last() int { return w.left + len(w.terms) - 1 }

// uniStep is the one-step operator of the uniformized DTMC with every
// probability precomputed: out[i] = stay[i]·v[i] + Σ_k prob[k]·v[src[k]]
// over state i's incoming transitions (transposed CSR, sources ascending).
// Each out[i] is written by exactly one row block with a fixed per-row
// summation order, so results are bit-identical at every worker count.
//
// Large chains run the matvec over a static row-block partition balanced
// by incoming-transition count (a row's cost is its gather length, not 1),
// executed by a persistent pool of workers that lives for the duration of
// one solve — the quotient chains the lumped generator produces run tens
// of thousands of steps, and respawning goroutines per step is measurable
// at that scale. Callers that obtain an operator must stop() it.
type uniStep struct {
	n       int
	stay    []float64
	tRowPtr []int32
	tCols   []int32
	tProb   []float64
	workers int

	// blocks is the row partition: block b covers rows
	// [blocks[b], blocks[b+1]). Nil when the chain is solved sequentially.
	blocks []int32

	poolOnce sync.Once
	jobs     chan int
	jobWG    sync.WaitGroup
	v, out   []float64 // current operands, set before jobs are posted
}

// parallelSolveMin is the problem size (states + transitions) below which
// row-parallel matvec is not worth the goroutine handoff.
const parallelSolveMin = 1 << 15

// makeBlocks cuts the rows into nBlocks contiguous blocks of roughly equal
// work, where row i costs 1 + its incoming-transition count.
func (s *uniStep) makeBlocks(nBlocks int) {
	total := s.n + len(s.tCols)
	s.blocks = make([]int32, 1, nBlocks+1)
	work, cut := 0, 1
	for i := 0; i < s.n && cut < nBlocks; i++ {
		work += 1 + int(s.tRowPtr[i+1]-s.tRowPtr[i])
		if work*nBlocks >= total*cut {
			s.blocks = append(s.blocks, int32(i+1))
			cut++
		}
	}
	s.blocks = append(s.blocks, int32(s.n))
}

func (s *uniStep) startPool() {
	s.jobs = make(chan int)
	for w := 1; w < len(s.blocks)-1; w++ {
		go func() {
			for b := range s.jobs {
				s.applyRange(s.v, s.out, int(s.blocks[b]), int(s.blocks[b+1]))
				s.jobWG.Done()
			}
		}()
	}
}

// stop releases the worker pool. Safe to call whether or not the pool
// started; the operator must not be applied afterwards.
func (s *uniStep) stop() {
	if s.jobs != nil {
		close(s.jobs)
		s.jobs = nil
	}
}

func (s *uniStep) apply(v, out []float64) {
	if s.blocks == nil {
		s.applyRange(v, out, 0, s.n)
		return
	}
	s.poolOnce.Do(s.startPool)
	s.v, s.out = v, out
	nb := len(s.blocks) - 1
	s.jobWG.Add(nb - 1)
	for b := 1; b < nb; b++ {
		s.jobs <- b
	}
	s.applyRange(v, out, int(s.blocks[0]), int(s.blocks[1]))
	s.jobWG.Wait()
}

// applyRange computes rows [lo, hi) of out. The operator's slices are
// hoisted into locals and each row's columns and probabilities are
// subsliced to a common length, so the inner loop reloads no struct field
// and bounds-checks only the gather v[c]. The per-row summation order —
// one accumulator, stay term first, then the incoming transitions in
// order, each product rounded before the add — is what makes results
// bit-identical across versions and worker counts; keep it.
func (s *uniStep) applyRange(v, out []float64, lo, hi int) {
	stay, rowPtr, cols, prob := s.stay, s.tRowPtr, s.tCols, s.tProb
	for i := lo; i < hi; i++ {
		rc := cols[rowPtr[i]:rowPtr[i+1]]
		rp := prob[rowPtr[i]:rowPtr[i+1]]
		rp = rp[:len(rc)]
		acc := stay[i] * v[i]
		for k, c := range rc {
			acc += rp[k] * v[c]
		}
		out[i] = acc
	}
}

// uniOperator builds the uniformized step operator. Λ is 1.02× the largest
// exit rate (strictly above every exit rate, so each state keeps a
// self-loop and the DTMC is aperiodic). When bad is non-nil, states marked
// bad absorb: their mass stays put and their outgoing probabilities are
// zeroed, and Λ is taken over the non-bad states only.
func (c *CTMC) uniOperator(bad []bool) (*uniStep, float64) {
	lambda := 0.0
	for i, e := range c.exit {
		if (bad == nil || !bad[i]) && e > lambda {
			lambda = e
		}
	}
	lambda *= 1.02
	if lambda == 0 {
		lambda = 1 // absorbing-only chain: identity steps
	}
	s := &uniStep{
		n:       c.n,
		stay:    make([]float64, c.n),
		tRowPtr: c.tRowPtr,
		tCols:   c.tCols,
		tProb:   make([]float64, len(c.tRates)),
		workers: c.workers,
	}
	for i := 0; i < c.n; i++ {
		if bad != nil && bad[i] {
			s.stay[i] = 1
		} else {
			s.stay[i] = 1 - c.exit[i]/lambda
		}
	}
	for k := range c.tRates {
		if src := c.tCols[k]; bad != nil && bad[src] {
			s.tProb[k] = 0
		} else {
			s.tProb[k] = c.tRates[k] / lambda
		}
	}
	if s.workers > 1 && s.n+len(s.tCols) >= parallelSolveMin {
		s.makeBlocks(s.workers)
	}
	return s, lambda
}

// Steady-state detection inside the transient loop: once successive
// uniformized iterates agree to ssTol in max norm the chain has mixed, so
// the remaining Poisson mass multiplies the current vector and the
// (possibly very long, Λt-step) iteration exits early.
const (
	ssTol        = 1e-12
	ssCheckFrom  = 32
	ssCheckEvery = 4
)

// uniformize is the one uniformization walk: it steps the uniformized DTMC
// from the initial distribution — with the states marked in bad absorbing,
// when bad is non-nil — and returns the distribution at time t,
//
//	π(t) = Σ_k P(N=k)·v_k,  N ~ Poisson(Λt), v_k = v_0·P^k,
//
// and, when occupancy is set, the expected time spent in each state over
// [0, t],
//
//	occ(t) = (1/Λ)·Σ_k P(N>k)·v_k = ∫₀ᵗ π(u) du,
//
// so one pass yields both instantaneous and accumulated rewards. The walk
// detects steady state: once successive iterates agree to ssTol, every
// remaining step contributes the current vector, with the remaining
// Poisson mass 1 − Σ P(N=k) to π and the remaining tail weights, which sum
// in closed form to E[N] − Σ seen = Λt − Σ seen, to occ. The same closed
// form places the tail weight that the window's right truncation drops.
func (c *CTMC) uniformize(t float64, bad []bool, occupancy bool) (pi, occ []float64, err error) {
	v := c.InitialDistribution()
	if occupancy {
		occ = make([]float64, c.n)
	}
	if t == 0 || c.n == 0 {
		return v, occ, nil
	}
	op, lambda := c.uniOperator(bad)
	defer op.stop()
	w, err := newPoissonWindow(lambda*t, 1e-12)
	if err != nil {
		return nil, nil, err
	}
	pi = make([]float64, c.n)
	next := make([]float64, c.n)
	cum := 0.0     // Σ over seen steps of P(N = k)
	tailSum := 0.0 // Σ over seen steps of P(N > k)
	for k := 0; ; k++ {
		if pk := w.prob(k); pk > 0 {
			axpy(pi, pk, v)
			cum += pk
		}
		if occ != nil {
			tail := max(1-cum, 0)
			axpy(occ, tail, v)
			tailSum += tail
		}
		if k >= w.last() {
			break
		}
		op.apply(v, next)
		if k >= ssCheckFrom && k%ssCheckEvery == 0 && maxAbsDiff(next, v) <= ssTol {
			axpy(pi, 1-cum, next)
			v = next
			break
		}
		v, next = next, v
	}
	if occ != nil {
		// The tail weights of the steps not walked sum to Λt − Σ seen. After
		// a steady-state exit they all carry the current vector; at the
		// window's end they are the truncated mass, within eps, and go to
		// the last vector — so Σ occ = t either way.
		if rem := lambda*t - tailSum; rem > 0 {
			axpy(occ, rem, v)
		}
		for i := range occ {
			occ[i] /= lambda
		}
	}
	return pi, occ, nil
}

// Transient returns the state distribution at time t, starting from the
// model's initial distribution, computed by uniformization with Fox–Glynn
// truncation and steady-state detection.
func (c *CTMC) Transient(t float64) ([]float64, error) {
	if t < 0 {
		return nil, errors.New("mc: negative time")
	}
	pi, _, err := c.uniformize(t, nil, false)
	if err != nil {
		return nil, fmt.Errorf("mc: transient at t=%v: %w", t, err)
	}
	return pi, nil
}

// TransientOccupancy returns, from one uniformization walk, the state
// distribution π at time t and the occupancy vector occ, whose entry i is
// the expected time spent in state i over [0, t] (so Σ occ = t). E[f(X_t)]
// is π·r and (1/t)·E[∫₀ᵗ f(X_u) du] is occ·r/t for the reward vector r of
// f, so a caller that needs both pays for one walk.
func (c *CTMC) TransientOccupancy(t float64) (pi, occ []float64, err error) {
	if t < 0 {
		return nil, nil, errors.New("mc: negative time")
	}
	pi, occ, err = c.uniformize(t, nil, true)
	if err != nil {
		return nil, nil, fmt.Errorf("mc: transient occupancy at t=%v: %w", t, err)
	}
	return pi, occ, nil
}

// TransientReward returns E[f(X_t)].
func (c *CTMC) TransientReward(t float64, f func(*san.State) float64) (float64, error) {
	p, err := c.Transient(t)
	if err != nil {
		return 0, err
	}
	return c.Reward(p, f), nil
}

// Reward returns Σᵢ v[i]·f(state i), summed in state order: E[f] under a
// distribution v, or the reward f accumulates over an occupancy vector v.
func (c *CTMC) Reward(v []float64, f func(*san.State) float64) float64 {
	return dot(v, c.RewardVector(f))
}

// IntervalAverageReward returns (1/T) E[∫₀ᵀ f(X_u) du] = occ(T)·r / T, with
// the occupancy vector of TransientOccupancy.
func (c *CTMC) IntervalAverageReward(t float64, f func(*san.State) float64) (float64, error) {
	if t <= 0 {
		return 0, errors.New("mc: non-positive interval")
	}
	_, occ, err := c.uniformize(t, nil, true)
	if err != nil {
		return 0, fmt.Errorf("mc: interval reward over [0,%v]: %w", t, err)
	}
	return c.Reward(occ, f) / t, nil
}

// SteadyState returns the stationary distribution by power iteration on the
// uniformized DTMC. It returns an error if the iteration does not converge;
// for chains with transient states mass settles on the recurrent classes
// reachable from the initial distribution.
func (c *CTMC) SteadyState(tol float64, maxIter int) ([]float64, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 1_000_000
	}
	v := c.InitialDistribution()
	op, _ := c.uniOperator(nil)
	defer op.stop()
	next := make([]float64, len(v))
	for iter := 0; iter < maxIter; iter++ {
		op.apply(v, next)
		diff := 0.0
		for i := range v {
			diff += math.Abs(next[i] - v[i])
		}
		v, next = next, v
		if diff < tol {
			return v, nil
		}
	}
	return nil, fmt.Errorf("mc: steady state did not converge in %d iterations", maxIter)
}

// SteadyStateReward returns the stationary expectation of f.
func (c *CTMC) SteadyStateReward(f func(*san.State) float64, tol float64, maxIter int) (float64, error) {
	p, err := c.SteadyState(tol, maxIter)
	if err != nil {
		return 0, err
	}
	return dot(p, c.RewardVector(f)), nil
}

// FirstPassageProb returns P(pred(X_u) for some u <= t): states satisfying
// pred are made absorbing and their transient mass at t is summed. States
// already satisfying pred at time 0 count as absorbed.
func (c *CTMC) FirstPassageProb(t float64, pred func(*san.State) bool) (float64, error) {
	if t < 0 {
		return 0, errors.New("mc: negative time")
	}
	bad := make([]bool, c.n)
	scratch := c.model.NewState()
	for i := 0; i < c.n; i++ {
		copy(scratch.Markings(), c.StateMarking(i))
		scratch.ResetDirty()
		bad[i] = pred(scratch)
	}
	v, _, err := c.uniformize(t, bad, false)
	if err != nil {
		return 0, fmt.Errorf("mc: first passage by t=%v: %w", t, err)
	}
	p := 0.0
	for i := range v {
		if bad[i] {
			p += v[i]
		}
	}
	return p, nil
}

// axpy adds a·x to y.
func axpy(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	for i, xi := range x {
		y[i] += a * xi
	}
}

// maxAbsDiff is the max-norm distance between a and b.
func maxAbsDiff(a, b []float64) float64 {
	diff := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > diff {
			diff = d
		}
	}
	return diff
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
