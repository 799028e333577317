package main

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sched"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/workload"
	"thermaldc/internal/zones"
)

// reducedSize runs every workload in about a second.
var reducedSize = size{
	nodes: 20, cracs: 2, trials: 1, streamTasks: 400,
	fleetZones: 4, fleetNodes: 20, checkZones: 2,
	fleetSetups: 1,
}

// smallPlan builds a reduced scenario and its three-stage plan.
func smallPlan(t *testing.T) (*scenario.Scenario, *assign.ThreeStageResult) {
	t.Helper()
	sc, err := scenario.Build(scenarioConfig(0.3, 0.1, 1, reducedSize))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sc, plan
}

func cloneTC(tc [][]float64) [][]float64 {
	out := make([][]float64, len(tc))
	for i := range tc {
		out[i] = append([]float64(nil), tc[i]...)
	}
	return out
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corrupted output accepted, want an error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestCheckPlanRejectsCorruptedPlans(t *testing.T) {
	sc, plan := smallPlan(t)
	dc := sc.DC
	out, ps, tc, reward := plan.Stage1.CracOut, plan.PStates, plan.Stage3.TC, plan.RewardRate()
	st, err := checkPlan(dc, out, ps, tc, reward)
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	t.Run("over the power cap", func(t *testing.T) {
		capped := *dc
		capped.Pconst = 0.99 * st.total
		_, err := checkPlan(&capped, out, ps, tc, reward)
		wantErr(t, err, "exceeds the cap")
	})
	t.Run("core over utilisation 1", func(t *testing.T) {
		for k, u := range plan.Stage3.CoreUtilization {
			if u > 0.1 {
				bad := cloneTC(tc)
				for i := range bad {
					bad[i][k] *= 1.5 / u
				}
				_, err := checkPlan(dc, out, ps, bad, reward)
				wantErr(t, err, "utilisation")
				return
			}
		}
		t.Fatal("plan has no busy core")
	})
	t.Run("misreported reward", func(t *testing.T) {
		_, err := checkPlan(dc, out, ps, tc, reward*1.001)
		wantErr(t, err, "reported reward")
	})
	t.Run("inlet over its redline", func(t *testing.T) {
		hot := append([]float64(nil), out...)
		for i := range hot {
			hot[i] += 10
		}
		_, err := checkPlan(dc, hot, ps, tc, reward)
		if err == nil {
			t.Fatal("outlets 10 °C warmer accepted")
		}
	})
}

// tracedRun simulates the small plan's stream under policy with the
// per-task trace recorded.
func tracedRun(t *testing.T, sc *scenario.Scenario, plan *assign.ThreeStageResult, policy sched.Policy) ([]workload.Task, float64, []sim.TaskRecord, *sim.Result) {
	t.Helper()
	h := streamHorizon(sc.DC, 2000)
	tasks := workload.GenerateTasks(sc.DC, h, stats.NewRand(7))
	var recs []sim.TaskRecord
	res, err := sim.RunOpts(sc.DC, plan.PStates, plan.Stage3.TC, tasks, h, sim.Options{
		Policy:   policy,
		Recorder: func(r sim.TaskRecord) { recs = append(recs, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return tasks, h, recs, res
}

func TestCheckTraceRejectsCorruptedTraces(t *testing.T) {
	sc, plan := smallPlan(t)
	dc, ps, tc := sc.DC, plan.PStates, plan.Stage3.TC
	for p, policy := range newPolicies(1) {
		tasks, h, recs, res := tracedRun(t, sc, plan, policy)
		if err := checkTrace(dc, ps, tc, tasks, h, recs, res, p == 0); err != nil {
			t.Fatalf("valid %s trace rejected: %v", policy.Name(), err)
		}
	}

	tasks, h, recs, res := tracedRun(t, sc, plan, sched.SoftRatioPolicy{})
	t.Run("overlapping tasks on one core", func(t *testing.T) {
		last := map[int]int{}
		for n, rec := range recs {
			if rec.Dropped {
				continue
			}
			if prev, ok := last[rec.Core]; ok && rec.Start > rec.Arrival {
				bad := append([]sim.TaskRecord(nil), recs...)
				shift := (rec.Start - rec.Arrival) / 2
				if gap := rec.Start - recs[prev].Completion; gap < shift {
					bad[n].Start -= shift
					bad[n].Completion -= shift
					wantErr(t, checkTrace(dc, ps, tc, tasks, h, bad, res, false), "busy until")
					return
				}
			}
			last[rec.Core] = n
		}
		t.Fatal("no queued task found to corrupt")
	})
	t.Run("misreported reward", func(t *testing.T) {
		bad := *res
		bad.WindowReward += 1
		wantErr(t, checkTrace(dc, ps, tc, tasks, h, recs, &bad, false), "reward")
	})
	t.Run("finishes after its deadline", func(t *testing.T) {
		for n, rec := range recs {
			if !rec.Dropped {
				bad := append([]sim.TaskRecord(nil), recs...)
				d := bad[n].Deadline - bad[n].Start + 1
				bad[n].Start += d
				bad[n].Completion += d
				wantErr(t, checkTrace(dc, ps, tc, tasks, h, bad, res, false), "deadline")
				return
			}
		}
	})
	t.Run("paper decision off the min-ratio rule", func(t *testing.T) {
		tasks, h, recs, res := tracedRun(t, sc, plan, sched.PaperPolicy{})
		nodeType := coreNodeTypes(dc)
		for n, rec := range recs {
			if rec.Dropped || n == 0 {
				continue
			}
			// Move the first placed task after the start to another core
			// that can run it at the same time.
			for k := range ps {
				if k == rec.Core || dc.ECS[rec.Type][nodeType[k]][ps[k]] != dc.ECS[rec.Type][nodeType[rec.Core]][ps[rec.Core]] {
					continue
				}
				bad := append([]sim.TaskRecord(nil), recs...)
				bad[n].Core = k
				if err := checkTrace(dc, ps, tc, tasks, h, bad, res, true); err == nil {
					continue // an exact tie or a different error path
				} else if strings.Contains(err.Error(), "min-ratio") {
					return
				}
			}
		}
		t.Fatal("no paper decision could be moved to a detectably worse core")
	})
}

func TestCheckFleetRejectsResultOverCap(t *testing.T) {
	f, err := zones.BuildFleet(zones.FleetConfig{Zones: 2, NodesPerZone: 20, CracsPerZone: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := zones.NewFleetSolver(f, zones.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, f.NumCRACs())
	for i := range out {
		out[i] = 15
	}
	res, err := s.Solve(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleet(f, out, res, s.LastStats()); err != nil {
		t.Fatalf("valid fleet result rejected: %v", err)
	}
	capped := *f
	capped.Pconst = 0.99 * res.TotalPower
	wantErr(t, checkFleet(&capped, out, res, s.LastStats()), "exceeds the fleet cap")

	bad := *res
	bad.TotalPower *= 0.9
	wantErr(t, checkFleet(f, out, &bad, s.LastStats()), "reported fleet power")

	if err := checkSmallFleet(f, [][]float64{out}); err != nil {
		t.Fatalf("small fleet differs from the monolithic Stage 1: %v", err)
	}
}

// fingerprint is everything a run's outputs fix: outcome, counters and
// operation counts.
type fingerprint struct {
	reward            float64
	counts            map[string]float64
	attempted, failed int
	checkErrs         []string
}

func runReduced(t *testing.T, name string) fingerprint {
	t.Helper()
	w, err := newWorkload(name, 3, reducedSize)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(false)
	if err := w.setup(r); err != nil {
		t.Fatal(err)
	}
	if err := r.round(false, func() error { return w.round(r) }); err != nil {
		t.Fatal(err)
	}
	w.check(r)
	return fingerprint{w.rewardRate(), r.counts, r.attempted, r.failed, r.checkErrs}
}

// TestOutcomesIndependentOfGOMAXPROCS runs every workload at reduced size
// on one processor and on all of them and requires identical outcomes.
func TestOutcomesIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			one := runReduced(t, name)
			runtime.GOMAXPROCS(runtime.NumCPU())
			all := runReduced(t, name)
			if len(one.checkErrs) > 0 || len(all.checkErrs) > 0 || one.failed+all.failed > 0 {
				t.Fatalf("checks failed: %v / %v (failed ops %d / %d)", one.checkErrs, all.checkErrs, one.failed, all.failed)
			}
			if !reflect.DeepEqual(one, all) {
				t.Fatalf("GOMAXPROCS=1 gives %+v, GOMAXPROCS=%d gives %+v", one, runtime.NumCPU(), all)
			}
			if one.reward <= 0 || one.attempted == 0 {
				t.Fatalf("empty run: %+v", one)
			}
		})
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	bench := []benchSpan{
		{name: roundSpan, start: 0, end: 100 * ms},
		{name: "assign.ThreeStage", start: 10 * ms, end: 90 * ms},
	}
	prog := []telemetry.Span{
		{Kind: telemetry.SpanStage, Label: 0, Start: 20 * ms, Dur: 60 * ms},
		// Two concurrent candidates on different worker tracks.
		{Kind: telemetry.SpanCandidate, Start: 30 * ms, Dur: 30 * ms, Track: 0},
		{Kind: telemetry.SpanCandidate, Start: 40 * ms, Dur: 30 * ms, Track: 1},
		{Kind: telemetry.SpanLPSolve, Start: 45 * ms, Dur: 10 * ms, Pivots: 7},
	}
	lt := analyzeSpans(bench, prog)
	want := map[string]time.Duration{
		roundSpan:              20 * ms,
		"assign.ThreeStage":    20 * ms,
		"assign.search":        20 * ms, // 60 − union(30..70)
		"tempsearch.candidate": 50 * ms, // one of them holds the LP
		"linprog.solve":        10 * ms,
	}
	if !reflect.DeepEqual(lt.self, want) {
		t.Fatalf("self times %v, want %v", lt.self, want)
	}
	if lt.pivots != 7 || lt.rounds != 1 {
		t.Fatalf("pivots %d rounds %d", lt.pivots, lt.rounds)
	}
}
