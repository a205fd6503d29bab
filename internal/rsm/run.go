// Package rsm is a live message-passing replicated service — the executable
// counterpart of the ITUA model. Replicas of the measured application run
// Bracha's reliable broadcast (internal/groupcomm) over an in-process
// discrete-event transport with seeded latency, loss, exclusion, and
// partition support, while the model's stochastic attack process
// (ituadirect.Process, stepped between probes) drives them through its
// lifecycle hooks: corruptions swap a replica's logic for a Byzantine
// behavior script, convictions quarantine it, exclusions cut its host off
// the transport, partitions sever domain pairs, and recoveries bring fresh
// replicas up. The attack law is shared with the direct simulator; what
// this package adds, and what makes the live measures independent
// evidence, is the real replica group, its agreement protocol and its
// transport. A synthetic client probes the service after every injected
// event; a probe fails when fewer than ⌈(n+1)/2⌉ members answer with one
// value (unavailability) and is Byzantine when a wrong value reaches that
// threshold (unreliability). The resulting empirical measures estimate the
// same quantities as the SAN model, the direct simulator, and the
// uniformization solver — the fourth arm of integrity.CrossCheck.
package rsm

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/groupcomm"
	"ituaval/internal/ituadirect"
	"ituaval/internal/rng"
	"ituaval/internal/stats"
)

// Spec configures one live-validation run.
type Spec struct {
	// Params is the ITUA configuration (topology, rates, policy).
	Params core.Params
	// T is the study horizon in hours (default 6, the paper's interval).
	T float64
	// Reps is the number of independent replications (default 200).
	Reps int
	// Seed is the root seed; replication i derives stream Seed→i.
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS). Results are aggregated
	// in replication order, so the worker count never changes the output.
	Workers int

	// MaxEvents bounds injected events per replication (default 1<<20);
	// exceeding it records the replication as failed ("event-budget"),
	// mirroring the simulation engine's firing budget.
	MaxEvents int
	// RepDeadline bounds one replication's wall-clock time (default 30s);
	// exceeding it records a "deadline" failure instead of hanging the run.
	RepDeadline time.Duration
	// MaxFailureFrac is the tolerated fraction of failed replications
	// before the whole run errors out (default 0.05).
	MaxFailureFrac float64

	// ProbeAttempts adds retry attempts on top of the guaranteed-rotation
	// minimum of f+1 per probe.
	ProbeAttempts int
	// ProbeBatches bounds transport batches per attempt (default 4096).
	ProbeBatches int
	// LatencyMean is the mean one-way transport latency in hours (default
	// 1e-6; the transport clock is decoupled from the model clock, probes
	// are instantaneous in model time).
	LatencyMean float64
	// LossProb drops each replica-to-replica packet independently. Nonzero
	// loss makes the live service strictly weaker than the model's
	// reliable-channel assumption; use it for robustness testing, not
	// validation.
	LossProb float64
	// FairAdversary revokes the adversary's worst-case scheduling
	// privilege (zero-latency delivery). Validation runs leave it false:
	// the model's failure predicate assumes the worst case.
	FairAdversary bool
	// Behavior maps a corrupted replica slot to its Byzantine script
	// (default: groupcomm.Collude, the worst-case adversary whose live
	// effect coincides with the model's one-third predicate). Weaker
	// behaviors (Silent, RandomLiar) yield live measures at or below the
	// model's — the model is then a bound, not an equality.
	Behavior func(slot int, rs *rng.Stream) groupcomm.Behavior
}

func (s *Spec) fill() {
	if s.T <= 0 {
		s.T = 6
	}
	if s.Reps <= 0 {
		s.Reps = 200
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.MaxEvents <= 0 {
		s.MaxEvents = 1 << 20
	}
	if s.RepDeadline <= 0 {
		s.RepDeadline = 30 * time.Second
	}
	if s.MaxFailureFrac <= 0 {
		s.MaxFailureFrac = 0.05
	}
	if s.ProbeBatches <= 0 {
		s.ProbeBatches = 4096
	}
	if s.LatencyMean <= 0 {
		s.LatencyMean = 1e-6
	}
}

// Result aggregates a run's live and oracle measures.
type Result struct {
	Reps   int // replications contributing measures
	Failed int
	// Failures counts failed replications by kind ("deadline",
	// "event-budget", "panic"), the watchdog taxonomy: failures are
	// recorded and bounded, never hangs.
	Failures map[string]int
	// Panic is the value and stack of the first panicking replication in
	// replication order ("" if none panicked).
	Panic string

	// Probes counts client probes across all replications, failed ones
	// included.
	Probes int64
	// Divergences counts probe outcomes disagreeing with the model oracle,
	// plus final unreliability latches disagreeing with the model's
	// Byzantine flag — except when that flag latched while a partition
	// isolated the group (ituadirect.Process.ByzantineBlocked), where the
	// model is a documented upper bound rather than an equality.
	Divergences int64

	// Live measures: empirical unavailability (fraction of the interval
	// the service failed the response threshold), unreliability (a wrong
	// answer was certified by the horizon), and the attack process's
	// excluded-domain fraction at the horizon.
	Unavail, Unrel, FracExcl stats.Accumulator

	// Oracle measures: the model's improper-service predicate evaluated on
	// the attack-process state over the same trajectories. Live and oracle
	// means coincide (up to Divergences) under the default adversary.
	PredUnavail, PredUnrel stats.Accumulator
}

type repOut struct {
	fail                string // failure kind, "" = ok
	panic               string // panic value and stack when fail == "panic"
	unavail, fracExcl   float64
	wrong               bool
	predUnavail         float64
	predWrong           bool
	probes, divergences int64
}

// Run executes the live validation: Reps independent replications of the
// attack process against freshly booted replica groups, aggregated in
// replication order (deterministic for a fixed Seed regardless of Workers).
func Run(ctx context.Context, spec Spec) (*Result, error) {
	spec.fill()
	if err := spec.Params.Validate(); err != nil {
		return nil, fmt.Errorf("rsm: %w", err)
	}
	root := rng.New(spec.Seed)
	outs := make([]repOut, spec.Reps)
	reps := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range reps {
				outs[rep] = runRep(ctx, spec, root.Derive(uint64(rep)))
			}
		}()
	}
	for rep := 0; rep < spec.Reps; rep++ {
		reps <- rep
	}
	close(reps)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{Failures: make(map[string]int)}
	for _, o := range outs {
		res.Probes += o.probes
		res.Divergences += o.divergences
		if o.fail != "" {
			res.Failed++
			res.Failures[o.fail]++
			if res.Panic == "" {
				res.Panic = o.panic
			}
			continue
		}
		res.Reps++
		res.Unavail.Add(o.unavail)
		res.Unrel.Add(b01(o.wrong))
		res.FracExcl.Add(o.fracExcl)
		res.PredUnavail.Add(o.predUnavail)
		res.PredUnrel.Add(b01(o.predWrong))
	}
	if frac := float64(res.Failed) / float64(spec.Reps); frac > spec.MaxFailureFrac {
		err := fmt.Errorf("rsm: %d of %d replications failed (%v), above the %.0f%% budget",
			res.Failed, spec.Reps, res.Failures, 100*spec.MaxFailureFrac)
		if res.Panic != "" {
			err = fmt.Errorf("%w; first panic: %s", err, res.Panic)
		}
		return res, err
	}
	return res, nil
}

func b01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runRep boots one replica group, drives the attack process to the horizon,
// and probes the live service after every injected event. A panic, event
// budget, or wall deadline degrades to a recorded failure that keeps the
// probes and divergences counted so far.
func runRep(ctx context.Context, spec Spec, stream *rng.Stream) (out repOut) {
	defer func() {
		if r := recover(); r != nil {
			out.fail = "panic"
			out.panic = fmt.Sprintf("%v\n%s", r, debug.Stack())
		}
	}()
	start := time.Now()

	tr := NewTransport(stream.RoleNamed("transport"), spec.LatencyMean, spec.LossProb)
	cl := newCluster(stream.RoleNamed("cluster"), tr, clusterSpec{
		probeAttempts: spec.ProbeAttempts,
		probeBatches:  spec.ProbeBatches,
		fairAdversary: spec.FairAdversary,
		behavior:      spec.Behavior,
	})
	proc, err := ituadirect.NewProcess(spec.Params, stream.RoleNamed("inject"), ituadirect.Opts{Hooks: ituadirect.Hooks{
		StartReplica: func(a, slot, host int) {
			if a == 0 {
				cl.start(slot, host)
			}
		},
		CorruptReplica: func(a, slot int) {
			if a == 0 {
				cl.corrupt(slot)
			}
		},
		ConvictReplica: func(a, slot int) {
			if a == 0 {
				cl.convict(slot)
			}
		},
		KillReplica: func(a, slot int) {
			if a == 0 {
				cl.kill(slot)
			}
		},
		ExcludeHost: func(host int) { tr.ExcludeHost(host) },
		Partition: func(da, db int) {
			H := spec.Params.HostsPerDomain
			tr.SetPartition(func(from, to int) bool {
				fa, ta := from/H, to/H
				return (fa == da && ta == db) || (fa == db && ta == da)
			})
		},
		Heal: func() { tr.SetPartition(nil) },
	}})
	if err != nil {
		panic(err) // Params were validated by Run; this is a programming error
	}

	T := spec.T
	now := 0.0
	unavailTime, predUnavailTime := 0.0, 0.0
	wrong := false

	// probe measures the post-event service status and checks it against
	// the model oracle.
	improper, predImproper := false, false
	probe := func() {
		outcome := cl.Probe()
		out.probes++
		improper = outcome != ProbeCorrect
		if outcome == ProbeWrong {
			wrong = true
		}
		predImproper = proc.Improper(0)
		if improper != predImproper {
			out.divergences++
		}
	}
	probe() // initial state

	for events := 0; ; events++ {
		if events >= spec.MaxEvents {
			out.fail = "event-budget"
			return out
		}
		if events&63 == 0 && (time.Since(start) > spec.RepDeadline || ctx.Err() != nil) {
			out.fail = "deadline"
			return out
		}
		dt, fired := proc.Step(T - now)
		if improper {
			unavailTime += dt
		}
		if predImproper {
			predUnavailTime += dt
		}
		now += dt
		if !fired {
			break // horizon reached, or absorbed with nothing enabled
		}
		probe()
	}
	// The latch comparison excuses one environment-induced asymmetry: when
	// the model's Byzantine flag latched while the partition isolated the
	// group, the colluders could not actually reach the correct replicas to
	// certify a forged answer, so the live service staying reliable is the
	// model bounding the measurement from above, not a divergence.
	predWrong := proc.Byzantine(0)
	if wrong != predWrong && !(predWrong && proc.ByzantineBlocked(0)) {
		out.divergences++
	}
	out.unavail = unavailTime / T
	out.predUnavail = predUnavailTime / T
	out.wrong = wrong
	out.predWrong = predWrong
	out.fracExcl = proc.FracDomainsExcluded()
	return out
}
