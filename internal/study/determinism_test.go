package study

// Determinism regression harness for the engine hot path. The golden file
// (testdata/determinism_golden.json) was captured from the engine BEFORE the
// allocation-free/flattened-scheduling overhaul, so this test proves the
// optimized engine samples bit-identical trajectories:
//
//   - fixed-seed figure panels (fig3/fig4/fig5) must reproduce the golden
//     values at Workers=1 AND Workers=8 — the flattened sweep scheduler
//     aggregates in replication order, so results are worker-count-invariant
//     and equal to the sequential (Workers=1) reference;
//   - sim.RunContext in CRN and non-CRN mode is pinned per worker count
//     (its strided aggregation is intentionally unchanged);
//   - an integrity.CrossCheck smoke (SAN engine vs the independent direct
//     simulator) is pinned per worker count;
//   - a live replica-group run (rsm.Run with partitions, attack campaigns
//     and a bounded repair crew) is pinned at two worker counts.
//
// Every float is compared by its IEEE-754 bit pattern, not by tolerance.
// Regenerate with `go test ./internal/study -run TestDeterminismGolden
// -update-golden` — but only when a change is MEANT to alter sampled
// trajectories, which is a compatibility break worth a changelog entry.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/integrity"
	"ituaval/internal/reward"
	"ituaval/internal/rsm"
	"ituaval/internal/sim"
	"ituaval/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/determinism_golden.json from the current engine (Workers=1 reference)")

const goldenPath = "testdata/determinism_golden.json"

// detFigureIDs are the figure experiments pinned by the golden file.
var detFigureIDs = []string{"fig3", "fig4", "fig5"}

// detFigure runs one figure experiment at reduced effort with the given
// worker count and flattens every panel value into bit-exact strings.
func detFigure(t *testing.T, id string, workers int) []string {
	t.Helper()
	cfg := Config{Reps: 60, Seed: 7, Workers: workers}
	fig, err := RunContext(context.Background(), id, cfg)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", id, workers, err)
	}
	return flattenFigure(fig)
}

func flattenFigure(f *Figure) []string {
	var out []string
	for _, p := range f.Panels {
		for _, s := range p.Series {
			for i := range s.X {
				out = append(out, fmt.Sprintf("%s|%s|%d|x=%016x|y=%016x|hw=%016x|n=%d",
					p.ID, s.Name, i,
					math.Float64bits(s.X[i]), math.Float64bits(s.Y[i]),
					math.Float64bits(s.HW[i]), int64At(s.N, i)))
			}
		}
	}
	return out
}

// detLiveWorkers are the worker counts the live arm is pinned at; rsm.Run
// aggregates in replication order, so both must give the same bits.
var detLiveWorkers = []int{1, 2}

// detParams is a small ITUA configuration shared by the sim and crosscheck
// scenarios, so the harness stays fast enough for every `go test` run.
func detParams() core.Params {
	p := core.DefaultParams()
	p.NumDomains = 4
	p.HostsPerDomain = 2
	p.NumApps = 3
	p.RepsPerApp = 4
	return p
}

// detSim pins sim.RunContext itself (the strided worker partition, which
// the sweep flattening intentionally leaves untouched) in both sampling
// modes and at two worker counts.
func detSim(t *testing.T, workers int, crn bool) []string {
	t.Helper()
	m, err := core.Build(detParams())
	if err != nil {
		t.Fatal(err)
	}
	const T = 6.0
	res, err := sim.RunContext(context.Background(), sim.Spec{
		Model: m.SAN, Until: T, Reps: 50, Seed: 11, Workers: workers, CRN: crn,
		Vars: []reward.Var{
			m.Unavailability("unavail", 0, 0, T),
			m.Unreliability("unrel", 0, T),
			m.FracDomainsExcluded("excl", T),
		},
	})
	if err != nil {
		t.Fatalf("sim (workers=%d crn=%v): %v", workers, crn, err)
	}
	out := []string{fmt.Sprintf("firings=%d|completed=%d", res.TotalFirings, res.Completed)}
	for _, e := range res.Estimates {
		out = append(out, fmt.Sprintf("%s|mean=%016x|hw=%016x|min=%016x|max=%016x|n=%d",
			e.Name, math.Float64bits(e.Mean), math.Float64bits(e.HalfWidth95),
			math.Float64bits(e.Min), math.Float64bits(e.Max), e.N))
	}
	return out
}

// detCross pins the integrity.CrossCheck smoke: both the SAN-engine
// estimates and the independent direct simulator's.
func detCross(t *testing.T, workers int) []string {
	t.Helper()
	rep, err := integrity.CrossCheck(context.Background(), detParams(),
		integrity.CrossCheckOptions{Reps: 120, T: 4, Seed: 3, Workers: workers})
	if err != nil {
		t.Fatalf("crosscheck (workers=%d): %v", workers, err)
	}
	var out []string
	for _, m := range rep.Measures {
		out = append(out, fmt.Sprintf("%s|san=%016x|sanhw=%016x|direct=%016x|directhw=%016x",
			m.Name, math.Float64bits(m.SANMean), math.Float64bits(m.SANHalf),
			math.Float64bits(m.DirectMean), math.Float64bits(m.DirectHalf)))
	}
	return out
}

// detLive pins the live arm: an rsm.Run with the full environment-fault
// vocabulary on, so the attack process, the hook protocol and the probe
// loop all contribute to the recorded bits.
func detLive(t *testing.T, workers int) []string {
	t.Helper()
	p := detParams()
	p.NumApps = 1
	p.PartitionRate = 2
	p.PartitionHealRate = 4
	p.CampaignRate = 0.2
	p.CampaignSize = 2
	p.CampaignProb = 0.5
	p.RepairCrew = 1
	res, err := rsm.Run(context.Background(), rsm.Spec{Params: p, T: 2, Reps: 40, Seed: 23, Workers: workers})
	if err != nil {
		t.Fatalf("live (workers=%d): %v", workers, err)
	}
	out := []string{fmt.Sprintf("reps=%d|failed=%d|probes=%d|divergences=%d",
		res.Reps, res.Failed, res.Probes, res.Divergences)}
	for _, m := range []struct {
		name string
		acc  *stats.Accumulator
	}{
		{"unavail", &res.Unavail}, {"unrel", &res.Unrel}, {"excl", &res.FracExcl},
		{"predunavail", &res.PredUnavail}, {"predunrel", &res.PredUnrel},
	} {
		out = append(out, fmt.Sprintf("%s|mean=%016x", m.name, math.Float64bits(m.acc.Mean())))
	}
	return out
}

// captureGolden produces the reference scenarios: figures at Workers=1 (the
// sequential order every worker count must reproduce), sim and crosscheck
// per worker count (their strided aggregation is worker-count-specific by
// design, but stable for a fixed count).
func captureGolden(t *testing.T) map[string][]string {
	g := make(map[string][]string)
	for _, id := range detFigureIDs {
		g[id] = detFigure(t, id, 1)
	}
	for _, w := range []int{1, 8} {
		for _, crn := range []bool{false, true} {
			g[fmt.Sprintf("sim/workers=%d/crn=%v", w, crn)] = detSim(t, w, crn)
		}
		g[fmt.Sprintf("crosscheck/workers=%d", w)] = detCross(t, w)
	}
	for _, w := range detLiveWorkers {
		g[fmt.Sprintf("live/workers=%d", w)] = detLive(t, w)
	}
	return g
}

func compareLines(t *testing.T, scenario string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, golden has %d", scenario, len(got), len(want))
	}
	diffs := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			if diffs < 5 {
				t.Errorf("%s[%d]:\n  got  %s\n  want %s", scenario, i, got[i], want[i])
			}
			diffs++
		}
	}
	if diffs > 5 {
		t.Errorf("%s: %d further mismatches suppressed", scenario, diffs-5)
	}
}

func TestDeterminismGolden(t *testing.T) {
	if *updateGolden {
		g := captureGolden(t)
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", goldenPath, len(g))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	// Figures: the same golden (captured sequentially) must hold at every
	// worker count — the flattened scheduler's invariance guarantee.
	for _, id := range detFigureIDs {
		for _, w := range []int{1, 8} {
			compareLines(t, fmt.Sprintf("%s/workers=%d", id, w), detFigure(t, id, w), want[id])
		}
	}
	for _, w := range []int{1, 8} {
		for _, crn := range []bool{false, true} {
			key := fmt.Sprintf("sim/workers=%d/crn=%v", w, crn)
			compareLines(t, key, detSim(t, w, crn), want[key])
		}
		key := fmt.Sprintf("crosscheck/workers=%d", w)
		compareLines(t, key, detCross(t, w), want[key])
	}
	for _, w := range detLiveWorkers {
		key := fmt.Sprintf("live/workers=%d", w)
		compareLines(t, key, detLive(t, w), want[key])
	}
}
