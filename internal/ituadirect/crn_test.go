package ituadirect

import (
	"context"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/rng"
	"ituaval/internal/stats"
)

func crnParams(policy core.Policy) core.Params {
	p := core.DefaultParams()
	p.NumDomains = 6
	p.HostsPerDomain = 2
	p.NumApps = 2
	p.RepsPerApp = 5
	p.CorruptionMult = 5
	p.DomainSpreadRate = 2
	p.Policy = policy
	return p
}

func TestCRNDeterministicForSeed(t *testing.T) {
	p := crnParams(core.DomainExclusion)
	a, err := RunContextOpts(context.Background(), p, rng.New(55), []float64{4}, Opts{CRN: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContextOpts(context.Background(), p, rng.New(55), []float64{4}, Opts{CRN: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.UnavailTime[0] != b.UnavailTime[0] || a.RunningAtEnd != b.RunningAtEnd ||
		a.ByzantineBy[0] != b.ByzantineBy[0] {
		t.Fatal("CRN run is not deterministic for a fixed seed")
	}
}

// TestCRNRoleStability pins the role isolation property on the direct
// backend, white-box. A host's attack class is the first draw of its own
// "host[g]" role substream (the class Category precedes the host's
// detection Bernoulli, which is only enabled after corruption), so under
// CRN any host that gets corrupted under *both* exclusion policies must be
// assigned the same class in both runs — no matter how differently the two
// trajectories unfold around it. Under single-stream sampling that
// alignment is lost as soon as the trajectories diverge, which the second
// half of the test demonstrates as a control.
func TestCRNRoleStability(t *testing.T) {
	classesMatch := func(crn bool, seeds int) (common, mismatched int) {
		dom := crnParams(core.DomainExclusion)
		host := crnParams(core.HostExclusion)
		for i := 0; i < seeds; i++ {
			o := Opts{CRN: crn}
			sa := newProcess(dom, rng.New(900).Derive(uint64(i)), o)
			if _, err := sa.run(context.Background(), []float64{4}); err != nil {
				t.Fatal(err)
			}
			sb := newProcess(host, rng.New(900).Derive(uint64(i)), o)
			if _, err := sb.run(context.Background(), []float64{4}); err != nil {
				t.Fatal(err)
			}
			for g := range sa.hostStatus {
				if sa.hostStatus[g] > 0 && sb.hostStatus[g] > 0 {
					common++
					if sa.hostStatus[g] != sb.hostStatus[g] {
						mismatched++
					}
				}
			}
		}
		return common, mismatched
	}

	common, mismatched := classesMatch(true, 50)
	if common < 50 {
		t.Fatalf("only %d hosts corrupted under both policies; test has no power", common)
	}
	if mismatched != 0 {
		t.Fatalf("CRN: %d of %d commonly-corrupted hosts drew different attack classes", mismatched, common)
	}
	// Control: without role streams the alignment must break, otherwise
	// this test asserts nothing.
	if common, mismatched = classesMatch(false, 50); mismatched == 0 {
		t.Fatalf("single-stream control matched all %d classes; the assertion is vacuous", common)
	}
}

// TestCRNPairsPolicies checks the variance-reduction payoff on the direct
// backend: pairing host- against domain-exclusion on CRN streams must
// leave the per-replication unavailability strongly positively correlated,
// shrinking the delta variance well below the independent design.
func TestCRNPairsPolicies(t *testing.T) {
	const reps = 300
	const horizon = 4.0
	dom := crnParams(core.DomainExclusion)
	host := crnParams(core.HostExclusion)
	ua := make([]float64, reps)
	ub := make([]float64, reps)
	for i := 0; i < reps; i++ {
		ra, err := RunContextOpts(context.Background(), host, rng.New(77).Derive(uint64(i)), []float64{horizon}, Opts{CRN: true})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := RunContextOpts(context.Background(), dom, rng.New(77).Derive(uint64(i)), []float64{horizon}, Opts{CRN: true})
		if err != nil {
			t.Fatal(err)
		}
		ua[i] = ra.UnavailTime[0] / horizon
		ub[i] = rb.UnavailTime[0] / horizon
	}
	pr, err := stats.PairedT(ua, ub, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Corr < 0.5 {
		t.Fatalf("CRN pairing left unavailability correlation at %v, want strongly positive", pr.Corr)
	}
	if pr.VRF < 2 {
		t.Fatalf("variance reduction factor %v < 2 (corr %v)", pr.VRF, pr.Corr)
	}
}
