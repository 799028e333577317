// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload (fig6-plan, degraded-closed-loop, policy-mix or fleet-stage1)
// through the program's public layer calls for a fixed wall time, checks
// every output against computations of its own, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics and a
// Chrome trace). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metrics and the steadiness mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	steady := fs.Int("steady", 0, "steadiness mode: run every workload this many times (seeds seed, seed+1, ...)")
	workloads := fs.String("workloads", "", "steadiness mode: comma-separated workloads (default: those of BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		if err := runSteady(stdout, *steady, *workloads, *seed, *seconds); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	path := filepath.Join(outDir(), fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
	res, err := runWorkload(stdout, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, path, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// outDir is where the benchmark writes files: $E2EBENCH_OUT (set by
// run.sh to the build directory) or .bench_build.
func outDir() string {
	if d := os.Getenv("E2EBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// hostInfo describes the machine; it is printed, never reported as a
// metric.
func hostInfo() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// runWorkload sets the workload up, runs whole rounds for the given wall
// time (alternating untraced and traced rounds when traced), checks the
// outputs and returns the result with the metrics of the mode.
func runWorkload(out io.Writer, name string, seed int64, seconds time.Duration, traced bool, tracePath string, sz size) (*result, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# host: %s\n", hostInfo())
	fmt.Fprintf(out, "# workload: %s seed=%d seconds=%g trace=%v\n", name, seed, seconds.Seconds(), traced)
	fmt.Fprintf(out, "# params: %s\n", w.describe())

	r := newRunner(traced)
	if err := w.setup(r); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if traced {
		r.tracing = true
		r.check("set-up replay", w.replay(r))
		r.tracing = false
	}

	// The warm-up round fills the program's caches and the heap; its
	// outputs are checked like every round's, its times are not kept. It
	// counts towards the run's seconds.
	start := time.Now()
	r.warmup = true
	err = r.round(false, func() error { return w.round(r) })
	r.warmup = false
	if err != nil {
		return nil, err
	}
	for i := 0; ; i++ {
		doTrace := traced && i%2 == 1 && r.traceRoom()
		if i > 0 && time.Since(start) >= seconds && (!traced || len(r.tracedRounds) > 0) {
			break
		}
		if err := r.round(doTrace, func() error { return w.round(r) }); err != nil {
			return nil, err
		}
	}
	w.check(r)

	res := &result{Correct: len(r.checkErrs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if traced {
		lt := analyzeSpans(r.spans, r.tracer.Snapshot())
		res.Metrics = layerMetrics(r, lt)
		meta := map[string]string{"workload": name, "seed": fmt.Sprint(seed), "host": hostInfo()}
		if err := writeChromeTrace(tracePath, r.tracer, r.spans, meta); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# trace: %s (%d program spans, %d benchmark spans)\n", tracePath, r.tracer.Count(), len(r.spans))
		printSelfTimes(out, lt)
	} else {
		opS, runS, nOps := r.opStats(false)
		wallOp, wallRun, _ := r.opStats(true)
		m := res.Metrics
		m["setup_s"] = metric{medianDur(r.setupCPU), "s"}
		m["op_s"] = metric{opS, "s"}
		m["run_s"] = metric{runS, "s"}
		m["reward_rate"] = metric{w.rewardRate(), "reward/s"}
		m["alloc_mb"] = metric{median(r.roundAllocs) / 1e6, "MB"}
		fmt.Fprintf(out, "# op_s, run_s, setup_s are CPU seconds; %d operations per round, %d samples, %d timed rounds, %d set-ups\n",
			len(r.groupOrder), nOps, len(r.roundDurs), len(r.setupCPU))
		fmt.Fprintf(out, "# wall time: op %.6g s, run %.6g s (same statistics), median round %.6g s\n", wallOp, wallRun, medianDur(r.roundDurs))
	}
	fmt.Fprintf(out, "# max RSS: %.6g MB\n", maxRSSMB())
	fmt.Fprintf(out, "# operations: attempted %d, failed %d\n", r.attempted, r.failed)
	for _, e := range r.opErrs {
		fmt.Fprintf(out, "# failed operation: %s\n", e)
	}
	for _, e := range r.checkErrs {
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", e)
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-28s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printSelfTimes(out io.Writer, lt *layerTimes) {
	names := make([]string, 0, len(lt.self))
	for k := range lt.self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return lt.self[names[i]] > lt.self[names[j]] })
	fmt.Fprintf(out, "# self time per traced round (%d rounds, %.6g s each):\n", lt.rounds, lt.perRound(lt.roundSum))
	for _, k := range names {
		fmt.Fprintf(out, "#   %-34s %10.6f s  %6.2f%%  spans=%d\n", k, lt.perRound(lt.self[k]),
			100*lt.self[k].Seconds()/lt.roundSum.Seconds(), lt.count[k])
	}
}

// layerMetrics derives every per-layer metric; a layer the workload never
// reaches reads 0.
func layerMetrics(r *runner, lt *layerTimes) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	perCall := func(count, call string) float64 {
		_, _, n := r.callTotals(call)
		if n == 0 {
			return 0
		}
		return r.counts[count] / float64(n)
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	set("scenario.build_s", "s", r.callMedian("scenario.Build"))
	set("workload.tasks_s", "s", r.callMedian("workload.GenerateTasks"))
	set("zones.build_s", "s", r.callMedian("zones.BuildFleet"))
	set("layout.alpha_s", "s", r.tracedCallMedian("layout.GenerateAlpha"))
	set("thermal.model_s", "s", r.tracedCallMedian("thermal.New"))
	set("assign.power_bounds_s", "s", r.tracedCallMedian("assign.PowerBounds"))

	set("assign.baseline_s", "s", r.callMedian("assign.Baseline"))
	set("assign.baseline_evals", "count", perCall("assign.baseline_evals", "assign.Baseline"))
	set("assign.three_stage_s", "s", r.callMedian("assign.ThreeStage"))
	set("assign.three_stage_evals", "count", perCall("assign.three_stage_evals", "assign.ThreeStage"))
	set("assign.search_s", "s", lt.perRound(lt.self["assign.search"]))
	set("assign.stage1_s", "s", lt.perRound(lt.self["assign.stage1"]))
	set("assign.stage2_s", "s", lt.perRound(lt.self["assign.stage2"]))
	set("assign.stage3_s", "s", lt.perRound(lt.self["assign.stage3"]))
	set("tempsearch.candidates", "count", div(float64(lt.count["tempsearch.candidate"]), float64(lt.rounds)))
	set("tempsearch.candidate_s", "s", lt.perRound(lt.self["tempsearch.candidate"]))
	set("linprog.solves", "count", div(float64(lt.count["linprog.solve"]), float64(lt.rounds)))
	set("linprog.pivots", "count", div(float64(lt.pivots), float64(lt.rounds)))
	set("linprog.solve_s", "s", lt.perRound(lt.total["linprog.solve"]))

	set("controller.closed_s", "s", r.callMedian("controller.RunContext/closed"))
	set("controller.open_s", "s", r.callMedian("controller.RunContext/open"))
	set("controller.resolves", "count", r.perRound("controller.resolves"))
	set("controller.resolve_s", "s", lt.perRound(lt.resolve))
	dispatch := lt.perRound(lt.ctlCalls - lt.resolve)
	set("controller.dispatch_s", "s", dispatch)

	var simSecs, simBytes float64
	for _, p := range policyNames {
		call := "sim.RunPolicy/" + p
		set("sim."+p+"_s", "s", r.callMedian(call))
		s, b, _ := r.callTotals(call)
		simSecs += s
		simBytes += b
	}
	tasks := r.counts["tasks"]
	ctlSecs, ctlBytes := 0.0, 0.0
	for _, c := range []string{"controller.RunContext/closed", "controller.RunContext/open"} {
		s, b, _ := r.callTotals(c)
		ctlSecs += s
		ctlBytes += b
	}
	switch {
	case simSecs > 0: // policy-mix: the dispatcher alone
		set("sim.ns_per_task", "ns", div(simSecs*1e9, tasks))
		set("sim.alloc_bytes_per_task", "bytes", div(simBytes, tasks))
		set("tasks_per_s", "tasks/s", div(tasks, simSecs))
	case ctlSecs > 0: // degraded-closed-loop: derived from the controller runs
		set("sim.ns_per_task", "ns", div(dispatch*1e9, r.perRound("tasks")))
		set("sim.alloc_bytes_per_task", "bytes", div(ctlBytes, tasks))
		set("tasks_per_s", "tasks/s", div(tasks, ctlSecs))
	default:
		set("sim.ns_per_task", "ns", 0)
		set("sim.alloc_bytes_per_task", "bytes", 0)
		set("tasks_per_s", "tasks/s", 0)
	}
	set("sched.placed", "count", r.perRound("sched.placed"))
	set("sched.dropped", "count", r.perRound("sched.dropped"))

	solveSecs, _, _ := r.callTotals("zones.Solve")
	set("zones.solve_s", "s", r.callMedian("zones.Solve"))
	set("zones.ns_per_node", "ns", div(solveSecs*1e9, r.counts["zones.nodes"]))
	set("zones.rounds", "count", r.perRound("zones.rounds"))
	set("zones.zone_solves", "count", r.perRound("zones.zone_solves"))
	set("zones.zone_solve_s", "s", lt.perRound(lt.total["zones.zone_solve"]))
	set("zones.master_s", "s", lt.perRound(lt.self["zones.master"]))

	set("max_rss_mb", "MB", maxRSSMB())
	set("bench.coverage", "ratio", lt.coverage())
	set("bench.trace_overhead_s", "s", medianDur(r.tracedRounds)-medianDur(r.roundDurs))
	return m
}

// maxRSSMB is the process's peak resident set size in MB (0 where the
// system does not report it).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
