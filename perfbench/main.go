// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, times it, checks that the outputs are
// correct, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (see e2eMetrics); with
// -trace 1 the run also records spans around the calls it makes into each
// layer and reports the per-layer metrics (see layerMetrics) instead.
// README.md in this directory explains the workloads and the metric map.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload fig5-sim --seed 1 --seconds 8 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Each workload sets up at least minSetupRuns times and, while that takes
// less than setupBudget, again, up to maxSetupRuns times; setup_s is the
// median. Cheap set-ups (well under a millisecond on exact-lumped and
// service-mix) so get hundreds of samples.
const (
	minSetupRuns = 15
	maxSetupRuns = 400
	setupBudget  = 2 * time.Second
)

// env is what every workload gets from the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	// root is the repository root, where the checked-in references are.
	root string
	// out is a scratch directory inside the checkout for files a workload
	// writes (the service's data directory, checkpoints, the span file).
	out string
	// workers is the parallelism every layer is given: one goroutine per
	// CPU, and no more HTTP clients than that.
	workers int
}

// window is what one timed loop of a workload measured.
type window struct {
	wall time.Duration
	// work counts the workload's units of work completed in the window;
	// work_per_s is work/wall.
	work float64
	// ops holds the latency of every primary operation (op_p50_ms).
	ops []time.Duration
	// attempted and failed count operations; a failed one is a failed
	// replication, solve, job or non-2xx response.
	attempted, failed int
	// layer holds per-layer metrics the loop itself measured (traced runs).
	layer map[string]float64
}

// workload is one named benchmark input set.
type workload interface {
	// setup prepares the workload; it is called minSetupRuns or more times
	// and the state of the last call is kept.
	setup(e *env) error
	// measure runs the timed loop for about d. rec is nil in untraced
	// windows.
	measure(ctx context.Context, e *env, d time.Duration, rec *recorder) (*window, error)
	// check verifies every output produced so far, independently of the
	// seed: it must hold for any seed and fail on a wrong output.
	check() error
	// probe measures the per-layer metrics (traced runs only).
	probe(ctx context.Context, e *env, rec *recorder, m map[string]float64) error
	// close releases what setup acquired.
	close() error
}

var workloads = map[string]func() workload{
	"fig5-sim":     func() workload { return &fig5Sim{} },
	"exact-lumped": func() workload { return &exactLumped{} },
	"live-group":   func() workload { return &liveGroup{} },
	"service-mix":  func() workload { return &serviceMix{} },
}

type metricDecl struct{ name, unit string }

// e2eMetrics are printed by every untraced run, in BENCHMARK.json order.
var e2eMetrics = []metricDecl{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// layerMetrics are printed by every traced run. A workload that makes no
// call into a layer reports that layer's metrics as 0.
func layerMetrics() []metricDecl {
	ms := []metricDecl{
		{"trace.overhead_frac", "ratio"},
		{"core.build_ms", "ms"},
		{"sim.rep_us", "us"},
		{"sim.ns_per_firing", "ns"},
		{"sim.firings_per_rep", "count"},
		{"sim.allocs_per_rep", "count"},
		{"reward.obs_frac", "ratio"},
		{"rng.expo_ns", "ns"},
		{"sweep.speedup", "ratio"},
		{"sweep.efficiency", "ratio"},
	}
	for _, t := range topologies {
		p := func(name, unit string) metricDecl { return metricDecl{fmt.Sprintf(name, t.name), unit} }
		ms = append(ms,
			p("gen.%s.s", "s"),
			p("gen.%s.states", "count"),
			p("gen.%s.transitions", "count"),
			p("gen.%s.states_per_s", "1/s"),
			p("gen.%s.allocs_per_state", "count"),
			p("canon.%s.ns_per_call", "ns"),
			p("canon.%s.allocs_per_call", "count"),
			p("uni.%s.unavail_s", "s"),
			p("uni.%s.unrel_s", "s"),
			p("uni.%s.excl_s", "s"),
			p("uni.%s.step_mb", "MiB-computed"),
		)
	}
	return append(ms,
		metricDecl{"inject.rep_us", "us"},
		metricDecl{"inject.events_per_rep", "count"},
		metricDecl{"rsm.probes_per_rep", "count"},
		metricDecl{"rsm.probe_us", "us"},
		metricDecl{"groupcomm.bcast_us", "us"},
		metricDecl{"groupcomm.steps_per_bcast", "count"},
		metricDecl{"groupcomm.rounds_per_bcast", "count"},
		metricDecl{"transport.ns_per_packet", "ns"},
		metricDecl{"scenario.parse_us", "us"},
		metricDecl{"scenario.compile_us", "us"},
		metricDecl{"server.job_p90_ms", "ms"},
		metricDecl{"server.hit_p50_ms", "ms"},
		metricDecl{"server.queue_ms", "ms"},
		metricDecl{"server.overhead_ms", "ms"},
		metricDecl{"checkpoint.ms_per_point", "ms"},
		metricDecl{"http.healthz_us", "us"},
		metricDecl{"cache.read_us", "us"},
	)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: fig5-sim, exact-lumped, live-group or service-mix")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 8, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for files the run writes")
	flag.Parse()
	newW, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, root: ".", workers: runtime.NumCPU()}
	dir, err := os.MkdirTemp(*out, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e.out = dir
	printMachine(e)
	steal0, total0 := cpuSteal()
	rep, err := run(newW(), *name, e, *trace == 1)
	steal1, total1 := cpuSteal()
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if total1 > total0 {
		fmt.Printf("cpu steal: %.1f%% of the machine's CPU time during the run went to other virtual machines\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	// After the measurement, so that its buffer stays out of max_rss_mb.
	printCalibration()
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and checks its outputs.
func run(w workload, name string, e *env, traced bool) (*report, error) {
	ctx := context.Background()
	var setups []time.Duration
	for begin := time.Now(); len(setups) < minSetupRuns ||
		(time.Since(begin) < setupBudget && len(setups) < maxSetupRuns); {
		if len(setups) > 0 {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer w.close()
	fmt.Printf("setup: median of %d set-ups\n", len(setups))

	rep := &report{Metrics: make(map[string]metric)}
	var win *window
	var err error
	if !traced {
		if win, err = w.measure(ctx, e, e.seconds, nil); err != nil {
			return nil, err
		}
		vals := map[string]float64{
			"setup_s":    median(setups).Seconds(),
			"work_per_s": win.work / win.wall.Seconds(),
			"op_p50_ms":  ms(median(win.ops)),
			"max_rss_mb": maxRSSMB(),
		}
		for _, d := range e2eMetrics {
			rep.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		fmt.Printf("samples: %d operations, %g work units in %.3f s\n", len(win.ops), win.work, win.wall.Seconds())
	} else {
		// Half the window untraced, half traced: the difference of their
		// median operation latency is the tracing overhead.
		plain, err := w.measure(ctx, e, e.seconds/2, nil)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		if win, err = w.measure(ctx, e, e.seconds/2, rec); err != nil {
			return nil, err
		}
		win.attempted += plain.attempted
		win.failed += plain.failed
		// The result line of a traced run holds the per-layer metrics; the
		// end-to-end figures of its untraced half are printed here.
		fmt.Printf("end-to-end, untraced half: setup_s %.6g, work_per_s %.6g, op_p50_ms %.6g, max_rss_mb %.6g\n",
			median(setups).Seconds(), plain.work/plain.wall.Seconds(), ms(median(plain.ops)), maxRSSMB())
		vals := map[string]float64{}
		for k, v := range win.layer {
			vals[k] = v
		}
		p0, p1 := median(plain.ops), median(win.ops)
		vals["trace.overhead_frac"] = (p1.Seconds() - p0.Seconds()) / p0.Seconds()
		fmt.Printf("tracing overhead: op p50 %.3f ms untraced (%d ops), %.3f ms traced (%d ops)\n",
			ms(p0), len(plain.ops), ms(p1), len(win.ops))
		if err := w.probe(ctx, e, rec, vals); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		for _, d := range layerMetrics() {
			rep.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		path, err := rec.write(filepath.Dir(e.out), name, e.seed)
		if err != nil {
			return nil, err
		}
		rec.printSelf(os.Stdout)
		fmt.Printf("spans: %d written to %s\n", rec.len(), path)
	}
	rep.Attempted, rep.Failed = win.attempted, win.failed
	if err := w.check(); err != nil {
		fmt.Println("output check FAILED:", err)
	} else {
		rep.Correct = win.failed == 0
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of ds (the mean of the two middle values for
// an even count), 0 for none.
func median(ds []time.Duration) time.Duration {
	return percentile(ds, 0.5)
}

// percentile returns the q-quantile of ds by linear interpolation between
// order statistics, 0 for none.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// printMachine prints the machine record every run starts with.
func printMachine(e *env) {
	model, caches := "unknown", "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	var cs []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		typ, err2 := os.ReadFile(dir + "type")
		size, err3 := os.ReadFile(dir + "size")
		if err := errors.Join(err1, err2, err3); err != nil {
			break
		}
		cs = append(cs, fmt.Sprintf("L%s-%s %s", strings.TrimSpace(string(level)),
			strings.ToLower(strings.TrimSpace(string(typ))), strings.TrimSpace(string(size))))
	}
	if len(cs) > 0 {
		caches = strings.Join(cs, ", ")
	}
	fmt.Printf("machine: %s, GOMAXPROCS %d, NumCPU %d, %s/%s, CPU %q, caches %s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), e.workers, runtime.GOOS, runtime.GOARCH, model, caches)
}

// cpuSteal returns the machine's steal time and total CPU time so far, in
// clock ticks, from the first line of /proc/stat (zeros where it cannot be
// read). Steal time is time a virtual CPU was ready to run while the
// hypervisor ran another machine.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// printCalibration times three fixed kernels and prints them with the
// machine record: a register-only integer loop (CPU speed), a pointer chase
// through a 32 MiB random cycle (memory latency past the caches) and a
// streaming read of the same 32 MiB (memory bandwidth). None of them
// depends on the repository, so when they move between two sets of runs,
// the machine moved; when a metric moves and they do not, the code did or
// the machine moved in a way they do not see.
func printCalibration() {
	const cpuIters = 50_000_000
	const chaseLen = 8 << 20 // int32 entries: 32 MiB
	const chaseSteps = 1_000_000
	const streamPasses = 8
	next := make([]int32, chaseLen)
	for i := range next {
		next[i] = int32(i)
	}
	// Sattolo's algorithm: a single random cycle through every entry.
	x := uint64(0x9E3779B97F4A7C15)
	for i := chaseLen - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	var cpu, lat, bw []time.Duration
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		h := uint64(rep)
		for i := 0; i < cpuIters; i++ {
			h = h*6364136223846793005 + 1442695040888963407
			h ^= h >> 29
		}
		cpu = append(cpu, time.Since(t0))
		t0 = time.Now()
		p := int32(rep)
		for i := 0; i < chaseSteps; i++ {
			p = next[p]
		}
		lat = append(lat, time.Since(t0))
		t0 = time.Now()
		var sum int64
		for k := 0; k < streamPasses; k++ {
			for _, v := range next {
				sum += int64(v)
			}
		}
		bw = append(bw, time.Since(t0))
		calibrationSink += h + uint64(p) + uint64(sum)
	}
	fmt.Printf("calibration: cpu %.3f ns/iteration, memory %.1f ns/load (32 MiB pointer chase), %.2f GB/s (32 MiB stream), median of 3\n",
		float64(median(cpu).Nanoseconds())/cpuIters, float64(median(lat).Nanoseconds())/chaseSteps,
		float64(streamPasses*4*chaseLen)/float64(median(bw).Nanoseconds()))
}

// calibrationSink keeps the calibration loops' results live.
var calibrationSink uint64
