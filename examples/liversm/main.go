// Live RSM demo: runs the model's stochastic attack process against a real
// message-passing replica group and narrates one replication event by
// event — corruptions, convictions, exclusions, recoveries — probing the
// live service after each one, then estimates availability and reliability
// over many replications and compares them with the model oracle evaluated
// on the same trajectories. The empirical measures of the service a client
// actually receives are the quantities the SAN model predicts; this is the
// fourth arm of integrity.CrossCheck in miniature.
package main

import (
	"context"
	"fmt"

	"ituaval/internal/core"
	"ituaval/internal/ituadirect"
	"ituaval/internal/rng"
	"ituaval/internal/rsm"
)

func params() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 2
	p.NumApps = 1
	p.RepsPerApp = 4
	return p
}

func main() {
	const T = 6.0
	p := params()
	fmt.Printf("topology: %d domains x %d hosts, one app with %d replicas, horizon %gh\n\n",
		p.NumDomains, p.HostsPerDomain, p.RepsPerApp, T)

	// Part 1: one replication, narrated. ituadirect's process is the attack
	// CTMC; its hooks mutate nothing here — we just print them — and after
	// every event we report the model's improper-service predicate.
	fmt.Println("one attack trajectory (seed 42):")
	hooks := ituadirect.Hooks{
		StartReplica:   func(a, slot, host int) { fmt.Printf("    start replica %d on host %d\n", slot, host) },
		CorruptReplica: func(a, slot int) { fmt.Printf("    CORRUPT replica %d\n", slot) },
		ConvictReplica: func(a, slot int) { fmt.Printf("    convict replica %d (script masked)\n", slot) },
		KillReplica:    func(a, slot int) { fmt.Printf("    kill replica %d\n", slot) },
		ExcludeHost:    func(host int) { fmt.Printf("    exclude host %d\n", host) },
	}
	proc, err := ituadirect.NewProcess(p, rng.New(42), ituadirect.Opts{Hooks: hooks})
	if err != nil {
		panic(err)
	}
	now := 0.0
	for {
		dt, fired := proc.Step(T - now)
		now += dt
		if !fired {
			break
		}
		status := "proper"
		if proc.Improper(0) {
			status = "IMPROPER"
		}
		fmt.Printf("  t=%5.2fh  running=%d undet=%d  service %s\n",
			now, proc.Running(0), proc.Undet(0), status)
	}
	fmt.Printf("  horizon: Byzantine failure latched: %v\n\n", proc.Byzantine(0))

	// Part 2: the measurement. rsm.Run wires the same process to live
	// replicas running Bracha broadcast over the in-process transport, with
	// a synthetic client probing after every event.
	fmt.Println("measuring the live service (400 replications)...")
	res, err := rsm.Run(context.Background(), rsm.Spec{Params: p, T: T, Reps: 400, Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  %d client probes across %d replications, %d failed\n",
		res.Probes, res.Reps, res.Failed)
	fmt.Printf("  %-28s %8s %10s\n", "", "live", "oracle")
	fmt.Printf("  %-28s %8.4f %10.4f\n", "unavailability",
		res.Unavail.Mean(), res.PredUnavail.Mean())
	fmt.Printf("  %-28s %8.4f %10.4f\n", "unreliability",
		res.Unrel.Mean(), res.PredUnrel.Mean())
	fmt.Printf("  probe-vs-oracle divergences: %d (the Collude adversary realizes\n", res.Divergences)
	fmt.Println("  the model's worst case exactly, so live == oracle event for event)")
}
