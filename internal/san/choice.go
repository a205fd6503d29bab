package san

// Enumerable random choices. Gate effects and init hooks that need
// randomness historically called ctx.Rand directly, which is fine for
// simulation but makes the model analytically unsolvable: the numerical
// solver passes a nil stream and any draw panics. The Context methods in
// this file are the solvable alternative: in simulation they delegate to
// ctx.Rand with exactly the draw sequence the direct calls made (so
// trajectories are bit-identical and no golden result moves), while under
// the analytic Resolver every alternative is explored as a separate branch
// with its probability, turning "pick a random qualifying domain" into an
// exact probabilistic transition.

// Choose returns an index in [0, n), each equally likely. In simulation it
// draws ctx.Rand.Choose(n); under enumeration every index is a branch of
// probability 1/n. It panics if n is not positive.
func (ctx *Context) Choose(n int) int {
	if ctx.enum != nil {
		return ctx.enum.take(n, nil)
	}
	return ctx.Rand.Choose(n)
}

// ChooseWeighted returns an index distributed according to the (not
// necessarily normalized) weights. In simulation it draws
// ctx.Rand.Category(w); under enumeration every positive-weight index is a
// branch of probability w[i]/Σw. It panics if no weight is positive or any
// is negative, matching Category.
func (ctx *Context) ChooseWeighted(w []float64) int {
	if ctx.enum != nil {
		return ctx.enum.take(len(w), w)
	}
	return ctx.Rand.Category(w)
}

// Sample fills p with a uniformly random permutation of 0..len(p)-1 and
// returns its first k entries, a uniformly random ordered sample of k
// distinct indices. In simulation it is exactly ctx.Rand.Perm(p), so the
// draws and the stream position are those of a full permutation; under
// enumeration only the ordered k-prefix branches — a forward partial
// Fisher–Yates shuffle of k nested uniform choices — so there are
// len(p)!/(len(p)−k)! branches, each of probability (len(p)−k)!/len(p)!,
// instead of len(p)! for the whole permutation. The entries of p past k
// are unspecified under enumeration. It panics unless 0 <= k <= len(p).
func (ctx *Context) Sample(p []int, k int) []int {
	if k < 0 || k > len(p) {
		panic("san: Sample size out of range")
	}
	if ctx.enum == nil {
		ctx.Rand.Perm(p)
		return p[:k]
	}
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + ctx.enum.take(len(p)-i, nil)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// choicePoint records one decision made while executing an effect under
// enumeration: which alternative was taken, how many there were, and the
// weights (nil for uniform), so the driver can fork the remaining
// alternatives afterwards.
type choicePoint struct {
	taken int
	n     int
	w     []float64
}

// enumChooser implements script-replay enumeration of an effect's choice
// tree. An execution replays a prefix of decisions (script) and, past the
// script, takes the first enumerable alternative at each fresh choice
// point; the driver then re-executes the effect once per untaken
// alternative of every fresh point. prob accumulates the probability of
// the decisions along the way.
type enumChooser struct {
	script []int
	path   []choicePoint
	prob   float64
}

func (e *enumChooser) reset(script []int) {
	e.script = script
	e.path = e.path[:0]
	e.prob = 1
}

// take records one choice among n alternatives (weighted by w when
// non-nil) and returns the alternative this execution follows.
func (e *enumChooser) take(n int, w []float64) int {
	if n <= 0 {
		panic("san: enumerable choice over an empty alternative set")
	}
	idx := 0
	if len(e.path) < len(e.script) {
		idx = e.script[len(e.path)]
	} else if w != nil {
		idx = -1
		for i, wi := range w {
			if wi > 0 {
				idx = i
				break
			}
		}
	}
	p := 1 / float64(n)
	var wCopy []float64
	if w != nil {
		total := 0.0
		for _, wi := range w {
			if wi < 0 || wi != wi {
				panic("san: negative or NaN weight in enumerable choice")
			}
			total += wi
		}
		if total <= 0 || idx < 0 {
			panic("san: enumerable weighted choice with non-positive total weight")
		}
		p = w[idx] / total
		wCopy = append([]float64(nil), w...)
	}
	e.path = append(e.path, choicePoint{taken: idx, n: n, w: wCopy})
	e.prob *= p
	return idx
}
