package main

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"thermaldc/internal/assign"
	"thermaldc/internal/controller"
	"thermaldc/internal/faults"
	"thermaldc/internal/layout"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sched"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
	"thermaldc/internal/workload"
	"thermaldc/internal/zones"
)

// A workload builds its inputs from the seed (set-up), runs whole rounds of
// the same operations (the timed phase), and checks the outputs of its
// first round against the benchmark's own computations.
type workloadRun interface {
	// describe lists the workload's parameters for the run header.
	describe() string
	setup(r *runner) error
	// replay re-runs the set-up's scenario builds step by step through the
	// public layer calls (traced runs only) and checks they rebuild the
	// same data centers.
	replay(r *runner) error
	round(r *runner) error
	check(r *runner)
	// rewardRate is the workload's outcome (see README).
	rewardRate() float64
}

// size holds the scale knobs (the self-tests run a reduced size).
type size struct {
	nodes, cracs int
	trials       int
	// streamTasks sizes every task stream of degraded-closed-loop and
	// policy-mix: the horizon is streamTasks/Σλ, so a stream offers about
	// streamTasks tasks whatever its data center's arrival rates.
	// Closed-loop epochs are a third of the horizon.
	streamTasks int
	fleetZones  int
	fleetNodes  int // nodes per zone
	checkZones  int // zones of the fleet compared with the monolithic Stage 1
	fleetSetups int
}

var fullSize = size{
	nodes: 150, cracs: 3, trials: 2, streamTasks: 3000,
	fleetZones: 100, fleetNodes: 100, checkZones: 3,
	fleetSetups: 3,
}

var workloadNames = []string{"fig6-plan", "degraded-closed-loop", "policy-mix", "fleet-stage1"}

func newWorkload(name string, seed int64, sz size) (workloadRun, error) {
	switch name {
	case "fig6-plan":
		return &fig6Plan{seed: seed, sz: sz}, nil
	case "degraded-closed-loop":
		return &degraded{seed: seed, sz: sz}, nil
	case "policy-mix":
		return &policyMix{seed: seed, sz: sz}, nil
	case "fleet-stage1":
		return &fleetStage1{seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// paperGroups are Figure 6's (static share, Vprop) column groups.
var paperGroups = [][2]float64{{0.3, 0.1}, {0.3, 0.3}, {0.2, 0.3}}

var paperPsis = []float64{25, 50}

// trialScenario is one set-up scenario and the config that built it.
type trialScenario struct {
	cfg scenario.Config
	sc  *scenario.Scenario
}

func buildScenario(r *runner, cfg scenario.Config) (*trialScenario, error) {
	t := &trialScenario{cfg: cfg}
	err := r.call("scenario.Build", func() (err error) {
		t.sc, err = scenario.Build(cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("scenario seed %d: %w", cfg.Seed, err)
	}
	return t, nil
}

// replayScenario rebuilds t's data center through the public layout,
// workload, thermal and assign calls in scenario.Build's order, with the
// paper's defaults, and checks the result is identical.
func replayScenario(r *runner, t *trialScenario) error {
	cfg := t.cfg
	rng := stats.NewRand(cfg.Seed)
	dc := &model.DataCenter{
		NodeTypes:   model.TableINodeTypes(cfg.StaticShare),
		CRACs:       make([]model.CRAC, cfg.NCracs),
		RedlineNode: model.DefaultRedlineNode,
		RedlineCRAC: model.DefaultRedlineCRAC,
	}
	for j := 0; j < cfg.NNodes; j++ {
		dc.Nodes = append(dc.Nodes, model.Node{Type: rng.Intn(len(dc.NodeTypes))})
	}
	lcfg := layout.DefaultConfig()
	wcfg := workload.DefaultGenConfig(cfg.Vprop)
	var tm *thermal.Model
	var pmin, pmax float64
	steps := []struct {
		name string
		f    func() error
	}{
		{"layout.Arrange", func() error { return layout.Arrange(dc, lcfg) }},
		{"layout.GenerateAlpha", func() error { return layout.GenerateAlpha(dc, lcfg, rng) }},
		{"workload.GenerateECS", func() (err error) { dc.ECS, err = workload.GenerateECS(dc.NodeTypes, wcfg, rng); return err }},
		{"workload.GenerateTaskTypes", func() error { return workload.GenerateTaskTypes(dc, wcfg, rng) }},
		{"thermal.New", func() (err error) { tm, err = thermal.New(dc); return err }},
		{"assign.PowerBounds", func() (err error) {
			pmin, pmax, err = assign.PowerBounds(dc, tm, tempsearch.DefaultConfig())
			return err
		}},
	}
	for _, s := range steps {
		if err := r.call(s.name, s.f); err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
	}
	dc.Pconst = pmin + cfg.PconstFraction*(pmax-pmin)
	if !reflect.DeepEqual(dc, t.sc.DC) {
		return fmt.Errorf("replaying scenario seed %d through the layer calls built a different data center", cfg.Seed)
	}
	return nil
}

// streamHorizon is the horizon (s) at which dc's task types offer about n
// tasks.
func streamHorizon(dc *model.DataCenter, n int) float64 {
	lambda := 0.0
	for _, tt := range dc.TaskTypes {
		lambda += tt.ArrivalRate
	}
	return float64(n) / lambda
}

func scenarioConfig(share, vprop float64, seed int64, sz size) scenario.Config {
	cfg := scenario.Default(share, vprop, seed)
	cfg.NNodes, cfg.NCracs = sz.nodes, sz.cracs
	return cfg
}

// ---------------------------------------------------------------- fig6-plan

// fig6Plan mirrors experiments.runFig6Trial without the simulation. Its
// data centers are Figure 6's trial 0 of each paper group (scenario seed
// 1 + 1000·g, as runFig6Trial seeds them); the benchmark seed draws each
// one's power cap, Pconst = Pmin + f·(Pmax − Pmin) with f uniform in
// [0.45, 0.55] (Figure 6 uses 0.5).
type fig6Plan struct {
	seed   int64
	sz     size
	trials []*fig6Trial
}

type fig6Trial struct {
	*trialScenario
	bl    *assign.BaselineResult
	ts    []*assign.ThreeStageResult
	best  float64
	first bool // outputs of the first round are stored
}

func (w *fig6Plan) describe() string {
	var fracs []string
	for _, t := range w.trials {
		fracs = append(fracs, fmt.Sprintf("%.4f", t.cfg.PconstFraction))
	}
	return fmt.Sprintf("nodes=%d cracs=%d groups=%v scenario_seeds=1+1000*g pconst_fractions=%v psi=%v strategy=coarse-to-fine",
		w.sz.nodes, w.sz.cracs, paperGroups, fracs, paperPsis)
}

func (w *fig6Plan) setup(r *runner) error {
	rng := stats.NewRand(w.seed)
	for g, grp := range paperGroups {
		cfg := scenarioConfig(grp[0], grp[1], 1+1000*int64(g), w.sz)
		cfg.PconstFraction = 0.45 + 0.1*rng.Float64()
		err := r.setupUnit(func() error {
			t, err := buildScenario(r, cfg)
			if err == nil {
				w.trials = append(w.trials, &fig6Trial{trialScenario: t})
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *fig6Plan) replay(r *runner) error {
	for _, t := range w.trials {
		if err := replayScenario(r, t.trialScenario); err != nil {
			return err
		}
	}
	return nil
}

func (w *fig6Plan) round(r *runner) error {
	for i, t := range w.trials {
		t := t
		r.op(fmt.Sprint("trial", i), true, func() error {
			dc, tm := t.sc.DC, t.sc.Thermal
			var bl *assign.BaselineResult
			if err := r.call("assign.Baseline", func() (err error) {
				bl, err = assign.Baseline(dc, tm, assign.DefaultOptions())
				return err
			}); err != nil {
				return fmt.Errorf("baseline: %w", err)
			}
			r.count("assign.baseline_evals", float64(bl.SearchEvals))
			var tss []*assign.ThreeStageResult
			best := 0.0
			for _, psi := range paperPsis {
				opts := assign.DefaultOptions()
				opts.Psi = psi
				opts.Recorder = r.recorder()
				var ts *assign.ThreeStageResult
				if err := r.call("assign.ThreeStage", func() (err error) {
					ts, err = assign.ThreeStage(dc, tm, opts)
					return err
				}); err != nil {
					return fmt.Errorf("three-stage ψ=%g: %w", psi, err)
				}
				r.count("assign.three_stage_evals", float64(ts.SearchEvals))
				tss = append(tss, ts)
				best = math.Max(best, ts.RewardRate())
			}
			if !t.first {
				t.bl, t.ts, t.best, t.first = bl, tss, best, true
				return nil
			}
			if bl.RewardRate != t.bl.RewardRate || best != t.best {
				r.checkf("scenario seed %d: round outputs differ from the first round's (baseline %v vs %v, best %v vs %v)",
					t.cfg.Seed, bl.RewardRate, t.bl.RewardRate, best, t.best)
			}
			return nil
		})
	}
	return nil
}

func (w *fig6Plan) check(r *runner) {
	for _, t := range w.trials {
		if !t.first {
			continue
		}
		dc := t.sc.DC
		seed := t.cfg.Seed
		ps, tc := t.bl.Assignment(dc)
		st, err := checkPlan(dc, t.bl.CracOut, ps, tc, t.bl.RewardRate)
		r.check(fmt.Sprintf("seed %d baseline plan", seed), err)
		if err == nil && !relClose(st.total, t.bl.TotalPower, powerTol) {
			r.checkf("seed %d baseline: reported power %.9g kW, recomputed %.9g kW", seed, t.bl.TotalPower, st.total)
		}
		for p, ts := range t.ts {
			_, err := checkPlan(dc, ts.Stage1.CracOut, ts.PStates, ts.Stage3.TC, ts.RewardRate())
			r.check(fmt.Sprintf("seed %d three-stage ψ=%g plan", seed, paperPsis[p]), err)
		}
	}
}

func (w *fig6Plan) rewardRate() float64 {
	var xs []float64
	for _, t := range w.trials {
		xs = append(xs, t.best)
	}
	return stats.Mean(xs)
}

// ---------------------------------------------------- degraded-closed-loop

// degradedLevels are the fault levels (node failures, CRAC degradations);
// as in experiments.DegradedSweep, no power steps or sensor offsets.
var degradedLevels = [][2]int{{0, 0}, {2, 1}}

// degraded mirrors experiments.DegradedSweep. Its data centers are the
// sweep's trials 0 and 1 at base seed 1 (scenario seeds 1 and 2); the
// fault schedules and task streams come from the benchmark seed as the
// sweep derives them from its base seed. Unlike the sweep, one scenario
// per trial is built once and shared read-only across levels and modes.
type degraded struct {
	seed   int64
	sz     size
	trials []*degradedTrial
}

type degradedTrial struct {
	*trialScenario
	horizon   float64
	tasks     []workload.Task
	schedules []faults.Schedule
	// first-round results per level: closed and open loop.
	closed, open []*controller.Result
}

func (w *degraded) describe() string {
	return fmt.Sprintf("nodes=%d cracs=%d trials=%d scenario_seeds=1+t fault_seeds=%d+101t+3 task_seeds=%d+7t+13 tasks_per_stream=%d (horizon=tasks/Σλ, epoch=horizon/3) levels(nodes:cracs)=%v policy=paper",
		w.sz.nodes, w.sz.cracs, w.sz.trials, w.seed, w.seed, w.sz.streamTasks, degradedLevels)
}

func (w *degraded) setup(r *runner) error {
	for trial := 0; trial < w.sz.trials; trial++ {
		trial := int64(trial)
		err := r.setupUnit(func() error {
			t, err := buildScenario(r, scenarioConfig(0.3, 0.1, 1+trial, w.sz))
			if err != nil {
				return err
			}
			dt := &degradedTrial{trialScenario: t, horizon: streamHorizon(t.sc.DC, w.sz.streamTasks)}
			if err := r.call("workload.GenerateTasks", func() error {
				dt.tasks = workload.GenerateTasks(t.sc.DC, dt.horizon, stats.NewRand(w.seed+trial*7+13))
				return nil
			}); err != nil {
				return err
			}
			for _, lvl := range degradedLevels {
				gen := faults.DefaultGenConfig(w.seed+trial*101+3, dt.horizon, w.sz.cracs, w.sz.nodes)
				gen.NodeFailures, gen.CracDegradations = lvl[0], lvl[1]
				gen.PowerSteps, gen.SensorOffsets = 0, 0
				var s faults.Schedule
				if err := r.call("faults.Generate", func() (err error) { s, err = faults.Generate(gen); return err }); err != nil {
					return err
				}
				dt.schedules = append(dt.schedules, s)
			}
			w.trials = append(w.trials, dt)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *degraded) replay(r *runner) error {
	for _, t := range w.trials {
		if err := replayScenario(r, t.trialScenario); err != nil {
			return err
		}
	}
	return nil
}

func (w *degraded) round(r *runner) error {
	ctx := context.Background()
	for ti, t := range w.trials {
		for li := range degradedLevels {
			for _, mode := range []controller.Mode{controller.Reoptimize, controller.OpenLoop} {
				t, li, mode := t, li, mode
				r.op(fmt.Sprint("trial", ti, "/level", li, "/", mode), true, func() error {
					cfg := controller.DefaultConfig(t.horizon, t.horizon/3)
					cfg.Mode = mode
					cfg.Recorder = r.recorder()
					name := "controller.RunContext/closed"
					if mode == controller.OpenLoop {
						name = "controller.RunContext/open"
					}
					var res *controller.Result
					if err := r.call(name, func() (err error) {
						res, err = controller.RunContext(ctx, t.sc.DC, t.schedules[li], t.tasks, cfg)
						return err
					}); err != nil {
						return err
					}
					if mode == controller.Reoptimize {
						r.count("controller.resolves", float64(res.Resolves))
					}
					r.count("tasks", float64(len(t.tasks)))
					r.count("sched.placed", float64(res.Completed+res.Lost))
					r.count("sched.dropped", float64(res.Dropped))
					w.keep(r, t, li, mode, res)
					return nil
				})
			}
		}
	}
	return nil
}

// keep stores the first round's result and compares later rounds with it.
func (w *degraded) keep(r *runner, t *degradedTrial, li int, mode controller.Mode, res *controller.Result) {
	slot := &t.closed
	if mode == controller.OpenLoop {
		slot = &t.open
	}
	if len(*slot) <= li {
		*slot = append(*slot, res)
		return
	}
	old := (*slot)[li]
	if old.TotalReward != res.TotalReward || old.Completed != res.Completed || old.Dropped != res.Dropped || old.Lost != res.Lost {
		r.checkf("scenario seed %d level %v %s: round outputs differ from the first round's", t.cfg.Seed, degradedLevels[li], mode)
	}
}

func (w *degraded) check(r *runner) {
	for _, t := range w.trials {
		for li, lvl := range degradedLevels {
			if li >= len(t.closed) || li >= len(t.open) {
				continue
			}
			what := fmt.Sprintf("scenario seed %d level %v", t.cfg.Seed, lvl)
			for _, res := range []*controller.Result{t.closed[li], t.open[li]} {
				if n := res.Completed + res.Dropped + res.Lost; n != len(t.tasks) {
					r.checkf("%s %s: completed+dropped+lost = %d, %d tasks offered", what, res.Mode, n, len(t.tasks))
				}
				if !relClose(res.RewardRate*res.Horizon, res.TotalReward, 1e-12) {
					r.checkf("%s %s: reward rate × horizon %.12g ≠ total reward %.12g", what, res.Mode, res.RewardRate*res.Horizon, res.TotalReward)
				}
			}
			cl, op := t.closed[li], t.open[li]
			if cl.Violations != 0 {
				r.checkf("%s: closed loop reports %d plan violations", what, cl.Violations)
			}
			if cl.MaxPowerExcess > powerTol*(1+t.sc.DC.Pconst) || cl.MaxInletExcess > tempTol {
				r.checkf("%s: closed-loop truth plant exceeded its limits (power +%.6g kW, inlet +%.6g °C)",
					what, cl.MaxPowerExcess, cl.MaxInletExcess)
			}
			r.check(what+" closed-loop epoch plans", checkEpochPlans(t.sc.DC, t.schedules[li], cl))
			if lvl == [2]int{0, 0} {
				if cl.Completed != op.Completed || cl.Dropped != op.Dropped || cl.Lost != op.Lost ||
					!relClose(cl.RewardRate, op.RewardRate, rewardTol) {
					r.checkf("%s: fault-free closed loop (%d/%d/%d, %.12g) differs from open loop (%d/%d/%d, %.12g)",
						what, cl.Completed, cl.Dropped, cl.Lost, cl.RewardRate, op.Completed, op.Dropped, op.Lost, op.RewardRate)
				}
			}
		}
	}
}

// checkEpochPlans re-checks every closed-loop plan against the planner's
// degraded model at the instant the plan took effect.
func checkEpochPlans(base *model.DataCenter, s faults.Schedule, res *controller.Result) error {
	if len(res.Epochs) != res.EpochsSeen {
		return fmt.Errorf("%d epoch reports kept of %d", len(res.Epochs), res.EpochsSeen)
	}
	for _, ep := range res.Epochs {
		if !ep.Resolved {
			continue
		}
		st := faults.NewState(base.NCRAC(), base.NCN())
		for _, e := range s.Events {
			if e.Time <= ep.Start {
				st.Apply(e)
			}
		}
		dc, err := st.Degrade(base, faults.Planner)
		if err != nil {
			return err
		}
		p := ep.Plan
		if _, err := checkPlan(dc, p.Stage1.CracOut, p.PStates, p.Stage3.TC, p.Stage3.RewardRate); err != nil {
			return fmt.Errorf("plan of the epoch at t=%g: %w", ep.Start, err)
		}
	}
	return nil
}

func (w *degraded) rewardRate() float64 {
	var xs []float64
	for _, t := range w.trials {
		for _, res := range t.closed {
			xs = append(xs, res.RewardRate)
		}
	}
	return stats.Mean(xs)
}

// ---------------------------------------------------------------- policy-mix

// policyNames are the five second-step policies, in the order of
// experiments.PolicyAblation, with the short names used in metric names.
var policyNames = []string{"paper", "soft", "min_completion", "random", "round_robin"}

// newPolicies builds fresh policy values (the random and round-robin
// policies carry state) seeded as experiments.PolicyAblation seeds them.
func newPolicies(seed int64) []sched.Policy {
	return []sched.Policy{
		sched.PaperPolicy{},
		sched.SoftRatioPolicy{},
		sched.MinCompletionPolicy{},
		&sched.RandomPolicy{Rng: stats.NewRand(seed + 900000)},
		&sched.RoundRobinPolicy{},
	}
}

// policyMix mirrors experiments.PolicyAblation: one three-stage plan per
// trial, then one task stream through all five policies. Its data centers
// are the ablation's trials 0 and 1 at base seed 1 (scenario seeds 1 and
// 2); the task streams and the random policy's draws come from the
// benchmark seed as the ablation derives them from its base seed.
type policyMix struct {
	seed   int64
	sz     size
	trials []*policyTrial
}

type policyTrial struct {
	*trialScenario
	streamSeed int64 // the ablation's per-trial seed for streams and policies
	horizon    float64
	tasks      []workload.Task
	plan       *assign.ThreeStageResult
	results    []*sim.Result // first round, per policy
}

func (w *policyMix) describe() string {
	return fmt.Sprintf("nodes=%d cracs=%d trials=%d scenario_seeds=1+t stream_seeds=%d+t tasks_per_stream=%d (horizon=tasks/Σλ) psi=50 policies=%v",
		w.sz.nodes, w.sz.cracs, w.sz.trials, w.seed, w.sz.streamTasks, policyNames)
}

func (w *policyMix) setup(r *runner) error {
	for trial := 0; trial < w.sz.trials; trial++ {
		seed := w.seed + int64(trial)
		err := r.setupUnit(func() error {
			t, err := buildScenario(r, scenarioConfig(0.3, 0.1, 1+int64(trial), w.sz))
			if err != nil {
				return err
			}
			pt := &policyTrial{trialScenario: t, streamSeed: seed, horizon: streamHorizon(t.sc.DC, w.sz.streamTasks)}
			if err := r.call("workload.GenerateTasks", func() error {
				pt.tasks = workload.GenerateTasks(t.sc.DC, pt.horizon, stats.NewRand(seed+700000))
				return nil
			}); err != nil {
				return err
			}
			w.trials = append(w.trials, pt)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *policyMix) replay(r *runner) error {
	for _, t := range w.trials {
		if err := replayScenario(r, t.trialScenario); err != nil {
			return err
		}
	}
	return nil
}

func (w *policyMix) round(r *runner) error {
	for ti, t := range w.trials {
		t := t
		var plan *assign.ThreeStageResult
		r.op(fmt.Sprint("trial", ti, "/plan"), false, func() error {
			opts := assign.DefaultOptions()
			opts.Recorder = r.recorder()
			err := r.call("assign.ThreeStage", func() (err error) {
				plan, err = assign.ThreeStage(t.sc.DC, t.sc.Thermal, opts)
				return err
			})
			if err == nil {
				r.count("assign.three_stage_evals", float64(plan.SearchEvals))
			}
			return err
		})
		if plan == nil {
			continue
		}
		if t.plan == nil {
			t.plan = plan
		} else if plan.RewardRate() != t.plan.RewardRate() {
			r.checkf("scenario seed %d: plan differs from the first round's", t.cfg.Seed)
		}
		for p, policy := range newPolicies(t.streamSeed) {
			p, policy := p, policy
			r.op(fmt.Sprint("trial", ti, "/", policyNames[p]), true, func() error {
				var res *sim.Result
				if err := r.call("sim.RunPolicy/"+policyNames[p], func() (err error) {
					res, err = sim.RunPolicy(t.sc.DC, plan.PStates, plan.Stage3.TC, t.tasks, t.horizon, policy)
					return err
				}); err != nil {
					return fmt.Errorf("policy %s: %w", policy.Name(), err)
				}
				r.count("tasks", float64(len(t.tasks)))
				r.count("sched.placed", float64(res.Completed+res.Lost))
				r.count("sched.dropped", float64(res.Dropped))
				if len(t.results) <= p {
					t.results = append(t.results, res)
				} else if old := t.results[p]; old.TotalReward != res.TotalReward || old.Completed != res.Completed {
					r.checkf("scenario seed %d policy %s: round outputs differ from the first round's", t.cfg.Seed, policyNames[p])
				}
				return nil
			})
		}
	}
	return nil
}

func (w *policyMix) check(r *runner) {
	for _, t := range w.trials {
		if t.plan == nil || len(t.results) != len(policyNames) {
			continue
		}
		dc, plan := t.sc.DC, t.plan
		_, err := checkPlan(dc, plan.Stage1.CracOut, plan.PStates, plan.Stage3.TC, plan.RewardRate())
		r.check(fmt.Sprintf("scenario seed %d plan", t.cfg.Seed), err)
		for p, policy := range newPolicies(t.streamSeed) {
			what := fmt.Sprintf("scenario seed %d policy %s", t.cfg.Seed, policyNames[p])
			recs := make([]sim.TaskRecord, 0, len(t.tasks))
			res, err := sim.RunOpts(dc, plan.PStates, plan.Stage3.TC, t.tasks, t.horizon, sim.Options{
				Policy:   policy,
				Recorder: func(rec sim.TaskRecord) { recs = append(recs, rec) },
			})
			if err != nil {
				r.checkf("%s: traced re-run: %v", what, err)
				continue
			}
			if timed := t.results[p]; res.TotalReward != timed.TotalReward || res.WindowReward != timed.WindowReward ||
				res.Completed != timed.Completed || res.Dropped != timed.Dropped {
				r.checkf("%s: the traced re-run differs from the timed run", what)
			}
			r.check(what, checkTrace(dc, plan.PStates, plan.Stage3.TC, t.tasks, t.horizon, recs, res, p == 0))
		}
	}
}

func (w *policyMix) rewardRate() float64 {
	var xs []float64
	for _, t := range w.trials {
		for _, res := range t.results {
			xs = append(xs, res.WindowRewardRate)
		}
	}
	return stats.Mean(xs)
}

// ------------------------------------------------------------- fleet-stage1

// outletCenters are the centres (°C) of the outlet vectors each round
// solves at, in order; every CRAC's outlet is drawn uniformly within
// ±0.5 °C of the centre.
var outletCenters = []float64{15, 12.5, 14, 16, 13}

// fleetSeed is the fleet BenchmarkFleetStage1 builds.
const fleetSeed = 2

// fleetStage1 solves a zone-decomposed 10k-node fleet (zones.BuildFleet,
// default zones.Config) at a sequence of outlet vectors drawn from the
// benchmark seed.
type fleetStage1 struct {
	seed   int64
	sz     size
	fleet  *zones.Fleet
	outs   [][]float64
	solver *zones.Solver
	traced *zones.Solver // same fleet, wired to the traced recorder
	small  *zones.Fleet  // first zones, compared with the monolithic Stage 1
	res    []*assign.Stage1Result
	stats  []zones.Stats
}

func (w *fleetStage1) describe() string {
	return fmt.Sprintf("zones=%d nodes_per_zone=%d cracs_per_zone=2 fleet_seed=%d config=default outlet_centers=%v±0.5 (per CRAC, from seed %d) check_zones=%d setups=%d",
		w.sz.fleetZones, w.sz.fleetNodes, fleetSeed, outletCenters, w.seed, w.sz.checkZones, w.sz.fleetSetups)
}

func (w *fleetStage1) setup(r *runner) error {
	cfg := zones.FleetConfig{Zones: w.sz.fleetZones, NodesPerZone: w.sz.fleetNodes, CracsPerZone: 2, Seed: fleetSeed}
	for i := 0; i < w.sz.fleetSetups; i++ {
		err := r.setupUnit(func() error {
			if err := r.call("zones.BuildFleet", func() (err error) { w.fleet, err = zones.BuildFleet(cfg); return err }); err != nil {
				return err
			}
			return r.call("zones.NewFleetSolver", func() (err error) {
				w.solver, err = zones.NewFleetSolver(w.fleet, zones.Config{})
				return err
			})
		})
		if err != nil {
			return err
		}
	}
	if r.rec != nil {
		var err error
		if w.traced, err = zones.NewFleetSolver(w.fleet, zones.Config{Recorder: r.rec}); err != nil {
			return err
		}
	}
	rng := stats.NewRand(w.seed)
	for _, c := range outletCenters {
		out := make([]float64, w.fleet.NumCRACs())
		for i := range out {
			out[i] = c - 0.5 + rng.Float64()
		}
		w.outs = append(w.outs, out)
	}
	// The check fleet is the fleet's first zones (the global CRAC order is
	// zone by zone, so their outlets are a prefix of every vector): few
	// enough that the monolithic Stage-1 LP stays small.
	w.small = &zones.Fleet{Config: w.fleet.Config, Variants: w.fleet.Variants}
	for z := 0; z < w.sz.checkZones; z++ {
		v := z % len(w.fleet.Variants)
		w.small.ZoneVariant = append(w.small.ZoneVariant, v)
		w.small.Pconst += w.fleet.Variants[v].Budget
	}
	return nil
}

func (w *fleetStage1) replay(*runner) error { return nil }

func (w *fleetStage1) round(r *runner) error {
	ctx := context.Background()
	s := w.solver
	if r.tracing {
		s = w.traced
	}
	for i, out := range w.outs {
		i, out := i, out
		r.op(fmt.Sprint("outlets", i), true, func() error {
			var res *assign.Stage1Result
			if err := r.call("zones.Solve", func() (err error) { res, err = s.Solve(ctx, out); return err }); err != nil {
				return fmt.Errorf("outlet vector %d: %w", i, err)
			}
			st := s.LastStats()
			r.count("zones.rounds", float64(st.Rounds))
			r.count("zones.zone_solves", float64(st.ZoneSolves))
			r.count("zones.nodes", float64(w.fleet.NumNodes()))
			if len(w.res) <= i {
				w.res = append(w.res, res)
				w.stats = append(w.stats, st)
			} else if res.PredictedARR != w.res[i].PredictedARR {
				r.checkf("outlet vector %d: objective differs from the first round's", i)
			}
			return nil
		})
	}
	return nil
}

func (w *fleetStage1) check(r *runner) {
	for i, res := range w.res {
		r.check(fmt.Sprintf("fleet at outlet vector %d", i), checkFleet(w.fleet, w.outs[i], res, w.stats[i]))
	}
	r.check("small fleet against the monolithic Stage 1", checkSmallFleet(w.small, w.outs))
}

func (w *fleetStage1) rewardRate() float64 {
	var xs []float64
	for _, res := range w.res {
		xs = append(xs, res.PredictedARR)
	}
	return stats.Mean(xs)
}

// checkFleet checks one fleet solve: it converged with its objective
// between the master's bounds, and the assembled operating point —
// evaluated zone by zone with the benchmark's own plant model — keeps
// every inlet under its redline and the fleet's exact power under the cap.
func checkFleet(f *zones.Fleet, out []float64, res *assign.Stage1Result, st zones.Stats) error {
	if !st.Converged || !res.Feasible {
		return fmt.Errorf("solve not converged (%v) or infeasible (feasible %v)", st.Converged, res.Feasible)
	}
	if !st.Shortcut {
		tol := 1e-9 * math.Max(1, math.Abs(st.UpperBound))
		if res.PredictedARR < st.LowerBound-tol || res.PredictedARR > st.UpperBound+tol {
			return fmt.Errorf("objective %.12g outside the master's bounds [%.12g, %.12g]", res.PredictedARR, st.LowerBound, st.UpperBound)
		}
	}
	if len(res.NodePower) != f.NumNodes() {
		return fmt.Errorf("%d node powers for %d nodes", len(res.NodePower), f.NumNodes())
	}
	total := 0.0
	cracOff, nodeOff := 0, 0
	for z, vi := range f.ZoneVariant {
		zdc := *f.Variants[vi].DC
		zc, zn := zdc.NCRAC(), zdc.NCN()
		ps, err := evalPlant(&zdc, out[cracOff:cracOff+zc], res.NodePower[nodeOff:nodeOff+zn])
		if err != nil {
			return fmt.Errorf("zone %d: %w", z, err)
		}
		zdc.Pconst = math.Inf(1) // the cap is fleet-wide, checked below
		if err := checkLimits(&zdc, ps); err != nil {
			return fmt.Errorf("zone %d: %w", z, err)
		}
		total += ps.total
		cracOff += zc
		nodeOff += zn
	}
	if total > f.Pconst*(1+powerTol)+powerTol {
		return fmt.Errorf("fleet power %.9g kW exceeds the fleet cap %.9g kW", total, f.Pconst)
	}
	if !relClose(total, res.TotalPower, powerTol) {
		return fmt.Errorf("reported fleet power %.9g kW, recomputed %.9g kW", res.TotalPower, total)
	}
	return nil
}

// checkSmallFleet solves a small fleet with the zone decomposition and the
// monolithic Stage-1 LP on the assembled data center at (the prefix of)
// every outlet vector and requires the same objective.
func checkSmallFleet(f *zones.Fleet, outs [][]float64) error {
	s, err := zones.NewFleetSolver(f, zones.Config{})
	if err != nil {
		return err
	}
	dc, err := f.Assemble()
	if err != nil {
		return err
	}
	tm, err := thermal.New(dc)
	if err != nil {
		return err
	}
	arrs, err := assign.NodeARRs(dc, 50)
	if err != nil {
		return err
	}
	for i, full := range outs {
		out := full[:f.NumCRACs()]
		zr, err := s.Solve(context.Background(), out)
		if err != nil {
			return fmt.Errorf("outlet vector %d: zone solve: %w", i, err)
		}
		if err := checkFleet(f, out, zr, s.LastStats()); err != nil {
			return fmt.Errorf("outlet vector %d: %w", i, err)
		}
		mr, err := assign.Stage1Fixed(dc, tm, arrs, out)
		if err != nil {
			return fmt.Errorf("outlet vector %d: monolithic Stage 1: %w", i, err)
		}
		if !relClose(zr.PredictedARR, mr.PredictedARR, 1e-6) {
			return fmt.Errorf("outlet vector %d: zone objective %.12g, monolithic %.12g", i, zr.PredictedARR, mr.PredictedARR)
		}
	}
	return nil
}
