package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ituaval/internal/core"
	"ituaval/internal/groupcomm"
	"ituaval/internal/rng"
	"ituaval/internal/rsm"
	"ituaval/internal/rsm/inject"
)

const (
	// liveT is the live study horizon, in hours.
	liveT = 6
	// liveBatch is the replication count of one live-arm study.
	liveBatch = 100
	// liveSetupReps is the size of the warm-up study set-up runs.
	liveSetupReps = 10
	// liveProbeReps, liveBcasts and transportRounds size the probes.
	liveProbeReps   = 100
	liveBcasts      = 2000
	transportRounds = 4000
	// groupN is the size of a paper replica group.
	groupN = 7
)

// liveParams is the paper-scale group: 10 domains of 3 hosts, one
// application with 7 replicas, corruption multiplier 5, spread rate 2.
func liveParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains, p.HostsPerDomain, p.NumApps, p.RepsPerApp = 10, 3, 1, 7
	p.CorruptionMult = 5
	p.DomainSpreadRate = 2
	return p
}

// liveOut is what one live-arm study returned, for the output check.
type liveOut struct {
	reps, wantReps, failed         int
	divergences                    int64
	unavail, predUnavail           float64
	unrel, predUnrel, fracExcl     float64
	unavailN, predUnavailN, unrelN int64
}

// liveGroup runs live-arm studies (rsm.Run) of liveBatch replications each,
// one after another with fresh seeds.
type liveGroup struct {
	outs []liveOut
}

func liveSeed(seed uint64, i int) uint64 { return seed*1_000_000 + uint64(i) + 1 }

func runLive(ctx context.Context, seed uint64, reps, workers int) (*rsm.Result, liveOut, error) {
	res, err := rsm.Run(ctx, rsm.Spec{Params: liveParams(), T: liveT, Reps: reps, Seed: seed, Workers: workers})
	if err != nil {
		return nil, liveOut{}, err
	}
	return res, liveOut{
		reps: res.Reps, wantReps: reps, failed: res.Failed, divergences: res.Divergences,
		unavail: res.Unavail.Mean(), predUnavail: res.PredUnavail.Mean(),
		unrel: res.Unrel.Mean(), predUnrel: res.PredUnrel.Mean(), fracExcl: res.FracExcl.Mean(),
		unavailN: res.Unavail.N(), predUnavailN: res.PredUnavail.N(), unrelN: res.Unrel.N(),
	}, nil
}

func (w *liveGroup) setup(e *env) error {
	if err := liveParams().Validate(); err != nil {
		return err
	}
	_, _, err := runLive(context.Background(), liveSeed(e.seed, 999_999), liveSetupReps, e.workers)
	return err
}

func (w *liveGroup) close() error { return nil }

func (w *liveGroup) measure(ctx context.Context, e *env, d time.Duration, rec *recorder) (*window, error) {
	win := &window{}
	start := time.Now()
	for time.Since(start) < d || len(win.ops) == 0 {
		runtime.GC()
		i := len(w.outs)
		var out liveOut
		lat, err := rec.timed(0, "rsm.Run", fmt.Sprintf("batch=%d", i), func() error {
			var err error
			_, out, err = runLive(ctx, liveSeed(e.seed, i), liveBatch, e.workers)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("live batch %d: %w", i, err)
		}
		win.attempted += liveBatch
		win.failed += out.failed
		win.work += float64(out.reps)
		win.ops = append(win.ops, lat)
		win.wall += lat
		w.outs = append(w.outs, out)
	}
	return win, nil
}

func (w *liveGroup) check() error { return checkLive(w.outs) }

// checkLive requires every study to complete every replication with no
// probe diverging from the model oracle, and its live means to equal the
// oracle means exactly: with zero divergences the live service was improper
// on exactly the oracle's intervals, whatever the seed.
func checkLive(outs []liveOut) error {
	if len(outs) == 0 {
		return fmt.Errorf("live: no study to check")
	}
	for i, o := range outs {
		switch {
		case o.failed != 0 || o.reps != o.wantReps:
			return fmt.Errorf("live study %d: %d of %d replications completed, %d failed", i, o.reps, o.wantReps, o.failed)
		case o.divergences != 0:
			return fmt.Errorf("live study %d: %d probes diverged from the model oracle", i, o.divergences)
		case o.unavailN != int64(o.reps) || o.predUnavailN != int64(o.reps) || o.unrelN != int64(o.reps):
			return fmt.Errorf("live study %d: %d/%d/%d observations for %d replications", i, o.unavailN, o.predUnavailN, o.unrelN, o.reps)
		case o.unavail != o.predUnavail:
			return fmt.Errorf("live study %d: live unavailability %.17g, oracle %.17g", i, o.unavail, o.predUnavail)
		case o.unrel != o.predUnrel:
			return fmt.Errorf("live study %d: live unreliability %.17g, oracle %.17g", i, o.unrel, o.predUnrel)
		case !(o.unavail >= 0 && o.unavail <= 1 && o.unrel >= 0 && o.unrel <= 1 && o.fracExcl >= 0 && o.fracExcl <= 1):
			return fmt.Errorf("live study %d: measures %g, %g, %g outside [0, 1]", i, o.unavail, o.unrel, o.fracExcl)
		}
	}
	return nil
}

func (w *liveGroup) probe(ctx context.Context, e *env, rec *recorder, m map[string]float64) error {
	root := rec.start(0, "probe.live", "")
	defer rec.end(root)
	seed := liveSeed(e.seed, 999_998)

	// The live study on one worker, then its injector alone on the same
	// replication streams (rsm.Run gives replication i stream Seed→i and
	// the injector that stream's "inject" role).
	var res *rsm.Result
	runWall, err := rec.timed(root, "rsm.Run", "workers=1", func() error {
		var err error
		res, _, err = runLive(ctx, seed, liveProbeReps, 1)
		return err
	})
	if err != nil {
		return err
	}
	if res.Failed != 0 {
		return fmt.Errorf("live probe: %d replications failed", res.Failed)
	}
	var events int
	injWall, err := rec.timed(root, "inject.Process", "", func() error {
		rs := rng.New(seed)
		for r := 0; r < liveProbeReps; r++ {
			proc, err := inject.New(liveParams(), rs.Derive(uint64(r)).RoleNamed("inject"), inject.Hooks{})
			if err != nil {
				return err
			}
			for now := 0.0; ; events++ {
				dt, fired := proc.Step(liveT - now)
				now += dt
				if !fired {
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// rsm.Run probes once at the start and after every injected event, so
	// the replay on the same streams must account for every probe.
	if want := int64(liveProbeReps + events); res.Probes != want {
		return fmt.Errorf("live probe: rsm.Run issued %d probes, the injector replay implies %d", res.Probes, want)
	}
	m["inject.rep_us"] = float64(injWall.Microseconds()) / liveProbeReps
	m["inject.events_per_rep"] = float64(events) / liveProbeReps
	m["rsm.probes_per_rep"] = float64(res.Probes) / liveProbeReps
	m["rsm.probe_us"] = float64((runWall - injWall).Microseconds()) / float64(res.Probes)

	// Bracha reliable broadcast in a paper-size group with two colluders.
	var steps, rounds int
	bcast, err := rec.timed(root, "groupcomm.ReliableBroadcast", "", func() error {
		for k := 0; k < liveBcasts; k++ {
			g := groupcomm.Group{
				N:      groupN,
				Faulty: map[groupcomm.ProcessID]groupcomm.Behavior{5: groupcomm.Collude{Value: "forged"}, 6: groupcomm.Collude{Value: "forged"}},
				Seed:   seed + uint64(k),
			}
			r := groupcomm.ReliableBroadcast(g, 0, "v")
			if r.Err != nil {
				return r.Err
			}
			for p := groupcomm.ProcessID(0); p < 5; p++ {
				if r.Delivered[p] != "v" {
					return fmt.Errorf("broadcast %d: process %d delivered %q, want %q", k, p, r.Delivered[p], "v")
				}
			}
			steps += r.Steps
			rounds += r.Rounds
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["groupcomm.bcast_us"] = float64(bcast.Microseconds()) / liveBcasts
	m["groupcomm.steps_per_bcast"] = float64(steps) / liveBcasts
	m["groupcomm.rounds_per_bcast"] = float64(rounds) / liveBcasts

	// Transport: every member of a group sends to every other, then the
	// batches are delivered until the network is quiet.
	var packets int
	tw, _ := rec.timed(root, "transport.SendDeliver", "", func() error {
		tr := rsm.NewTransport(rng.New(seed), 1e-6, 0)
		for n := 0; n < groupN; n++ {
			tr.Register(rsm.NodeID(n), n)
		}
		payload := []byte("ping")
		for round := 0; round < transportRounds; round++ {
			for from := 0; from < groupN; from++ {
				for to := 0; to < groupN; to++ {
					if from != to {
						tr.Send(rsm.NodeID(from), rsm.NodeID(to), payload, false)
					}
				}
			}
			for !tr.Quiet() {
				packets += len(tr.DeliverBatch())
			}
		}
		return nil
	})
	if want := transportRounds * groupN * (groupN - 1); packets != want {
		return fmt.Errorf("transport: %d packets delivered, want %d", packets, want)
	}
	m["transport.ns_per_packet"] = float64(tw.Nanoseconds()) / float64(packets)
	return nil
}
