package rsm

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/groupcomm"
	"ituaval/internal/ituadirect"
	"ituaval/internal/rng"
	"ituaval/internal/stats"
)

func smallParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 2
	p.HostsPerDomain = 1
	p.NumApps = 1
	p.RepsPerApp = 2
	return p
}

// The live probe must agree with the model's improper/Byzantine predicates
// event for event under the default (Collude) adversary: zero divergences,
// and the live measures identical to the oracle measures.
func TestRunMatchesOracle(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mut  func(*core.Params)
	}{
		{"2x1 domain-exclusion", func(p *core.Params) {}},
		{"2x1 host-exclusion", func(p *core.Params) { p.Policy = core.HostExclusion }},
		{"2x2x7 reps", func(p *core.Params) { p.HostsPerDomain = 2; p.NumDomains = 4; p.RepsPerApp = 7 }},
	} {
		p := smallParams()
		cfg.mut(&p)
		res, err := Run(context.Background(), Spec{Params: p, T: 6, Reps: 80, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if res.Failed > 0 {
			t.Fatalf("%s: %d failed replications: %v", cfg.name, res.Failed, res.Failures)
		}
		if res.Divergences != 0 {
			t.Errorf("%s: %d probe divergences in %d probes", cfg.name, res.Divergences, res.Probes)
		}
		if got, want := res.Unavail.Mean(), res.PredUnavail.Mean(); got != want {
			t.Errorf("%s: live unavail %v != oracle %v", cfg.name, got, want)
		}
		if got, want := res.Unrel.Mean(), res.PredUnrel.Mean(); got != want {
			t.Errorf("%s: live unrel %v != oracle %v", cfg.name, got, want)
		}
		if res.Probes == 0 {
			t.Errorf("%s: no probes issued", cfg.name)
		}
	}
}

// Same seed → identical results, regardless of worker count.
func TestRunDeterministic(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Run(context.Background(), Spec{Params: smallParams(), T: 6, Reps: 40, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(4)
	for name, pair := range map[string][2]float64{
		"unavail":  {a.Unavail.Mean(), b.Unavail.Mean()},
		"unrel":    {a.Unrel.Mean(), b.Unrel.Mean()},
		"excl":     {a.FracExcl.Mean(), b.FracExcl.Mean()},
		"workers4": {a.Unavail.Mean(), c.Unavail.Mean()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: %v != %v", name, pair[0], pair[1])
		}
	}
	if a.Probes != b.Probes || a.Probes != c.Probes {
		t.Errorf("probe counts differ: %d %d %d", a.Probes, b.Probes, c.Probes)
	}
}

// A non-default adversary (Silent) is weaker than the model's worst case:
// the live unreliability can only be at or below the oracle's.
func TestRunSilentAdversaryBoundedByModel(t *testing.T) {
	spec := Spec{
		Params: smallParams(), T: 6, Reps: 60, Seed: 13,
		Behavior: func(int, *rng.Stream) groupcomm.Behavior { return groupcomm.Silent{} },
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if live, oracle := res.Unrel.Mean(), res.PredUnrel.Mean(); live > oracle {
		t.Errorf("silent adversary beat the worst-case model: live %v > oracle %v", live, oracle)
	}
}

// Exhausting the event budget degrades to recorded failures, not a hang,
// and the failure fraction gate turns them into an error.
func TestRunEventBudgetClassified(t *testing.T) {
	spec := Spec{Params: smallParams(), T: 6, Reps: 10, Seed: 3, MaxEvents: 2, MaxFailureFrac: 1}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("budget exhaustion should degrade, not error: %v", err)
	}
	if res.Failures["event-budget"] == 0 {
		t.Fatalf("no event-budget failures recorded: %+v", res.Failures)
	}
	// With the default 5% gate the same run errors out.
	spec.MaxFailureFrac = 0
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("failure fraction above the budget did not error")
	}
}

// A cancelled context aborts the run promptly instead of hanging.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(ctx, Spec{Params: smallParams(), T: 6, Reps: 5000, Seed: 5})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// The oracle is ituadirect's process itself, stepped by rsm.Run on the
// stream Seed→i→"inject": its means must equal ituadirect.Run's measures
// on the same streams, up to float summation order for unavailability and
// exactly for the Byzantine latch.
func TestOracleMatchesDirect(t *testing.T) {
	const T = 6.0
	for _, cfg := range []struct {
		name string
		mut  func(*core.Params)
	}{
		{"2x1", func(p *core.Params) {}},
		{"4x2x4 host-exclusion", func(p *core.Params) {
			p.NumDomains, p.HostsPerDomain, p.RepsPerApp = 4, 2, 4
			p.Policy = core.HostExclusion
		}},
		{"4x2x4 environment faults", func(p *core.Params) {
			p.NumDomains, p.HostsPerDomain, p.RepsPerApp = 4, 2, 4
			p.PartitionRate, p.PartitionHealRate = 2, 4
			p.CampaignRate, p.CampaignSize, p.CampaignProb = 0.5, 2, 0.5
			p.RepairCrew = 1
		}},
	} {
		p := smallParams()
		cfg.mut(&p)
		const reps, seed = 60, 31
		res, err := Run(context.Background(), Spec{Params: p, T: T, Reps: reps, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if res.Failed > 0 {
			t.Fatalf("%s: %d failed replications: %v", cfg.name, res.Failed, res.Failures)
		}
		var unavail, unrel stats.Accumulator
		root := rng.New(seed)
		for i := 0; i < reps; i++ {
			d, err := ituadirect.Run(p, root.Derive(uint64(i)).RoleNamed("inject"), []float64{T})
			if err != nil {
				t.Fatal(err)
			}
			unavail.Add(d.UnavailTime[0] / T)
			unrel.Add(b01(d.ByzantineBy[0]))
		}
		if got, want := res.PredUnavail.Mean(), unavail.Mean(); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: oracle unavailability %.17g, direct %.17g", cfg.name, got, want)
		}
		if got, want := res.PredUnrel.Mean(), unrel.Mean(); got != want {
			t.Errorf("%s: oracle unreliability %.17g, direct %.17g", cfg.name, got, want)
		}
	}
}

// A replication that panics is recorded as a "panic" failure that keeps
// the probes it issued, and the first panic's value and stack surface in
// the Result (and in the error once the failure budget is exceeded).
func TestRunPanicKeepsCountsAndStack(t *testing.T) {
	const T, reps, seed = 6.0, 30, 17
	p := smallParams()
	spec := Spec{
		Params: p, T: T, Reps: reps, Seed: seed, MaxFailureFrac: 1,
		Behavior: func(int, *rng.Stream) groupcomm.Behavior { panic("corruption behavior exploded") },
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the attack process on the same streams: a replication probes
	// once at the start and after every event, and panics inside the
	// first event that corrupts a replica.
	var wantProbes int64
	panicked := 0
	root := rng.New(seed)
	for i := 0; i < reps; i++ {
		corrupted := false
		proc, err := ituadirect.NewProcess(p, root.Derive(uint64(i)).RoleNamed("inject"),
			ituadirect.Opts{Hooks: ituadirect.Hooks{CorruptReplica: func(int, int) { corrupted = true }}})
		if err != nil {
			t.Fatal(err)
		}
		wantProbes++
		for now := 0.0; ; {
			dt, fired := proc.Step(T - now)
			now += dt
			if !fired || corrupted {
				break
			}
			wantProbes++
		}
		if corrupted {
			panicked++
		}
	}
	if panicked == 0 || panicked == reps {
		t.Fatalf("%d of %d replications corrupt a replica; the test has no power", panicked, reps)
	}
	if got := res.Failures["panic"]; got != panicked {
		t.Errorf("%d panic failures, replay says %d", got, panicked)
	}
	if res.Probes != wantProbes {
		t.Errorf("Probes = %d, replay says %d (failed replications' probes dropped?)", res.Probes, wantProbes)
	}
	for _, want := range []string{"corruption behavior exploded", "runRep"} {
		if !strings.Contains(res.Panic, want) {
			t.Errorf("Result.Panic lacks %q:\n%s", want, res.Panic)
		}
	}

	spec.MaxFailureFrac = 0 // default 5% budget
	if _, err := Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "corruption behavior exploded") {
		t.Errorf("over-budget error does not carry the panic: %v", err)
	}
}
