package mc

import (
	"math"
	"testing"
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
