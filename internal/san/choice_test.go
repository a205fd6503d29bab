package san

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ituaval/internal/rng"
)

// TestSampleSimulationMatchesPerm: in simulation, Sample returns the first
// k entries of exactly the permutation Stream.Perm draws and leaves the
// stream where Perm leaves it, for every k, so switching a caller from a
// full permutation to a sample moves no simulated trajectory.
func TestSampleSimulationMatchesPerm(t *testing.T) {
	m := NewModel("sample")
	m.Place("p", 0)
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2, 5, 6} {
		for k := 0; k <= d; k++ {
			seed := uint64(100*d + k)
			ctx := &Context{State: m.NewState(), Rand: rng.New(seed)}
			ref := rng.New(seed)
			for round := 0; round < 3; round++ {
				got := ctx.Sample(make([]int, d), k)
				want := make([]int, d)
				ref.Perm(want)
				if !slices.Equal(got, want[:k]) {
					t.Fatalf("d=%d k=%d round %d: Sample = %v, Perm prefix = %v", d, k, round, got, want[:k])
				}
			}
			if a, b := ctx.Rand.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("d=%d k=%d: stream position differs from Perm's (next draw %d vs %d)", d, k, a, b)
			}
		}
	}
}

// TestSampleEnumeration: under the Resolver, Sample branches once per
// ordered k-prefix of a permutation of d — d!/(d−k)! branches, every one a
// distinct sequence of distinct indices, with equal probabilities summing
// to 1 — including the empty sample and the whole permutation.
func TestSampleEnumeration(t *testing.T) {
	for _, d := range []int{1, 3, 5} {
		for k := 0; k <= d; k++ {
			m := NewModel("sample")
			m.Place("base", 0)
			pick := make([]*Place, k)
			for i := range pick {
				pick[i] = m.Place(fmt.Sprintf("pick[%d]", i), 0)
			}
			if err := m.Finalize(); err != nil {
				t.Fatal(err)
			}
			want := 1
			for i := 0; i < k; i++ {
				want *= d - i
			}
			seen := make(map[string]bool)
			total, first := 0.0, 0.0
			err := NewResolver(m).Resolve(m.NewState(), nil, 0, func(ctx *Context) {
				for i, x := range ctx.Sample(make([]int, d), k) {
					ctx.State.Set(pick[i], Marking(x+1))
				}
			}, func(st *State, p float64) error {
				used := make([]bool, d)
				for _, pl := range pick {
					x := int(st.Get(pl)) - 1
					if x < 0 || x >= d || used[x] {
						return fmt.Errorf("branch %v is not a sequence of distinct indices below %d", st.Markings(), d)
					}
					used[x] = true
				}
				key := string(AppendMarkingKey(nil, st.Markings()))
				if seen[key] {
					return fmt.Errorf("prefix %v enumerated twice", st.Markings())
				}
				seen[key] = true
				if len(seen) == 1 {
					first = p
				} else if p != first {
					return fmt.Errorf("branch %v has probability %v, the first had %v", st.Markings(), p, first)
				}
				total += p
				return nil
			})
			if err != nil {
				t.Fatalf("d=%d k=%d: %v", d, k, err)
			}
			if len(seen) != want {
				t.Fatalf("d=%d k=%d: %d branches, want %d", d, k, len(seen), want)
			}
			if math.Abs(first-1/float64(want)) > 1e-15 || math.Abs(total-1) > 1e-14 {
				t.Fatalf("d=%d k=%d: branch probability %v (want 1/%d), total %.17g", d, k, first, want, total)
			}
		}
	}
}
