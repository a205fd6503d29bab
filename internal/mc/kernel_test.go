package mc

import (
	"math"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/san"
)

// refApply is the uniformized step as one plain per-row loop: one
// accumulator per row, the stay term first, then the incoming transitions
// in CSR order. Every exact result and golden was produced with this
// summation order, so the kernel must reproduce it bit for bit.
func refApply(s *uniStep, v, out []float64) {
	for i := 0; i < s.n; i++ {
		acc := s.stay[i] * v[i]
		for k := s.tRowPtr[i]; k < s.tRowPtr[i+1]; k++ {
			acc += s.tProb[k] * v[s.tCols[k]]
		}
		out[i] = acc
	}
}

// TestUniStepSummationOrder steps the bench4x1 quotient chain 50 times
// with uniStep.apply and with refApply, sequentially and on four row
// blocks, and requires bit equality at every step. Extra accumulators,
// reordered rows or fused multiply-adds in the kernel would move the last
// bits and fail here.
func TestUniStepSummationOrder(t *testing.T) {
	m, canon := buildITUABench(t)
	for _, workers := range []int{1, 4} {
		c, err := Generate(m.SAN, Options{Workers: workers, Canon: canon})
		if err != nil {
			t.Fatal(err)
		}
		if size := c.NumStates() + c.NumTransitions(); size < parallelSolveMin {
			t.Fatalf("chain size %d is below parallelSolveMin %d", size, parallelSolveMin)
		}
		op, _ := c.uniOperator(nil)
		if (op.blocks != nil) != (workers > 1) {
			t.Fatalf("workers=%d: row blocks %v", workers, op.blocks)
		}
		// A start vector with varied mantissas in every entry, so every
		// product of every row matters from the first step.
		v := make([]float64, c.NumStates())
		for i := range v {
			v[i] = 1 / float64(3+i%97)
		}
		ref := append([]float64(nil), v...)
		out := make([]float64, len(v))
		refOut := make([]float64, len(v))
		for step := 0; step < 50; step++ {
			op.apply(v, out)
			refApply(op, ref, refOut)
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(refOut[i]) {
					op.stop()
					t.Fatalf("workers=%d step %d row %d: kernel %.17g, per-row reference %.17g",
						workers, step, i, out[i], refOut[i])
				}
			}
			v, out = out, v
			ref, refOut = refOut, ref
		}
		op.stop()
	}
}

// refAbsorbingOperator is the full-length absorbing step operator that the
// survivor operator replaced: every state stays in the vector, absorbing
// states keep their mass (stay 1) and the transitions out of them carry
// probability 0. Stepped with refApply, it is the reference the restricted
// walk must reproduce on the surviving states.
func refAbsorbingOperator(c *CTMC, bad []bool, lambda float64) *uniStep {
	s := &uniStep{
		n:       c.n,
		stay:    make([]float64, c.n),
		tRowPtr: c.tRowPtr,
		tCols:   c.tCols,
		tProb:   make([]float64, len(c.tRates)),
	}
	for i := range s.stay {
		if bad[i] {
			s.stay[i] = 1
		} else {
			s.stay[i] = 1 - c.exit[i]/lambda
		}
	}
	for k, src := range c.tCols {
		if !bad[src] {
			s.tProb[k] = c.tRates[k] / lambda
		}
	}
	return s
}

// TestSurvivorOperatorBitIdentical steps the bench4x1 quotient with the
// Byzantine states of application 0 absorbing, 50 times, with the survivor
// operator and with the full-length absorbing reference, sequentially and
// on four row blocks. Every surviving entry must be bit-identical at every
// step, and the scalar absorbed increment v·toBad must match the mass the
// reference moved into the absorbing states.
func TestSurvivorOperatorBitIdentical(t *testing.T) {
	m, canon := buildITUABench(t)
	for _, workers := range []int{1, 4} {
		c, err := Generate(m.SAN, Options{Workers: workers, Canon: canon})
		if err != nil {
			t.Fatal(err)
		}
		bad := c.statesWhere(m.Byzantine(0))
		op, lambda := c.uniOperator(bad)
		if (op.blocks != nil) != (workers > 1) {
			op.stop()
			t.Fatalf("workers=%d: row blocks %v (operator size %d)", workers, op.blocks, op.n+len(op.tCols))
		}
		if op.n == 0 || op.n == c.n {
			op.stop()
			t.Fatalf("workers=%d: %d of %d states survive, want a proper subset", workers, op.n, c.n)
		}
		ref := refAbsorbingOperator(c, bad, lambda)
		v := make([]float64, c.n)
		for i := range v {
			v[i] = 1 / float64(3+i%97)
		}
		vOut := make([]float64, c.n)
		u := make([]float64, op.n)
		for j, i := range op.keep {
			u[j] = v[i]
		}
		uOut := make([]float64, op.n)
		for step := 0; step < 50; step++ {
			op.apply(u, uOut)
			refApply(ref, v, vOut)
			for j, i := range op.keep {
				if math.Float64bits(uOut[j]) != math.Float64bits(vOut[i]) {
					op.stop()
					t.Fatalf("workers=%d step %d state %d: survivor walk %.17g, full absorbing walk %.17g",
						workers, step, i, uOut[j], vOut[i])
				}
			}
			inc, refInc := dot(u, op.toBad), 0.0
			for i, b := range bad {
				if b {
					refInc += vOut[i] - v[i]
				}
			}
			if math.Abs(inc-refInc) > 1e-12*refInc {
				op.stop()
				t.Fatalf("workers=%d step %d: absorbed increment %.17g, full walk moved %.17g", workers, step, inc, refInc)
			}
			u, uOut = uOut, u
			v, vOut = vOut, v
		}
		op.stop()
	}
}

// TestFirstPassageMatchesFullWalk compares FirstPassageProb on the
// bench4x1 quotient (Byzantine states of application 0, T = 10) with the
// full-length absorbing walk run over the whole Poisson window, without
// the steady-state exit.
func TestFirstPassageMatchesFullWalk(t *testing.T) {
	m, canon := buildITUABench(t)
	c, err := Generate(m.SAN, Options{Canon: canon})
	if err != nil {
		t.Fatal(err)
	}
	const T = 10
	got, err := c.FirstPassageProb(T, m.Byzantine(0))
	if err != nil {
		t.Fatal(err)
	}
	bad := c.statesWhere(m.Byzantine(0))
	op, lambda := c.uniOperator(bad)
	op.stop()
	ref := refAbsorbingOperator(c, bad, lambda)
	w, err := newPoissonWindow(lambda*T, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	v := c.InitialDistribution()
	pi := make([]float64, c.n)
	next := make([]float64, c.n)
	for k := 0; ; k++ {
		axpy(pi, w.prob(k), v)
		if k >= w.last() {
			break
		}
		refApply(ref, v, next)
		v, next = next, v
	}
	want := 0.0
	for i, b := range bad {
		if b {
			want += pi[i]
		}
	}
	if math.Abs(got-want) > 1e-13 {
		t.Fatalf("FirstPassageProb = %.17g, full walk over %d steps = %.17g (diff %.3g)", got, w.last(), want, got-want)
	}
}

// TestFirstPassageEdges pins the cases with nothing or everything
// absorbing, and the zero horizon, on the full 3x1 chain, whose initial
// distribution spreads over the six ordered replica placements.
func TestFirstPassageEdges(t *testing.T) {
	p := benchITUAParams()
	p.NumDomains = 3
	mod, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(mod.SAN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	init := c.InitialDistribution()
	onDomain0 := func(s *san.State) bool { return s.Get(mod.HasReplica[0][0]) == 1 }
	mass := func(pred func(*san.State) bool) float64 {
		sum := 0.0
		for i, in := range c.statesWhere(pred) {
			if in {
				sum += init[i]
			}
		}
		return sum
	}
	never := func(*san.State) bool { return false }
	always := func(*san.State) bool { return true }
	for _, tc := range []struct {
		name string
		t    float64
		pred func(*san.State) bool
		want float64
	}{
		{"never", 10, never, 0},
		{"always", 10, always, mass(always)},
		{"t=0", 0, onDomain0, mass(onDomain0)},
		{"t=0 never", 0, never, 0},
	} {
		got, err := c.FirstPassageProb(tc.t, tc.pred)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%s: FirstPassageProb = %.17g, want exactly %.17g", tc.name, got, tc.want)
		}
	}
	if w := mass(onDomain0); math.Abs(w-2.0/3) > 1e-15 {
		t.Fatalf("initial mass with a replica on domain 0 = %v, want 2/3", w)
	}
}
