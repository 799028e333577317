package main

import (
	"fmt"
	"math"

	"thermaldc/internal/model"
	"thermaldc/internal/sim"
	"thermaldc/internal/workload"
)

// The checks below recompute what the program reports from the data-center
// description alone (α, air flows, P-state powers, ECS, rewards, arrival
// rates, deadlines). They share no code with the program's thermal model,
// LPs, verifier or scheduler.

// Tolerances of the checks.
const (
	utilTol   = 1e-6  // per-core utilisation above 1
	rateTol   = 1e-6  // relative, per-type rate above the arrival rate
	powerTol  = 1e-6  // relative, total power above the cap
	tempTol   = 1e-6  // °C above a redline
	rewardTol = 1e-9  // relative, recomputed against reported reward
	timeTol   = 1e-9  // s, task execution windows
	zeroTol   = 1e-12 // tasks/s, LP round-off around a zero rate
)

// Physical constants of the paper (Appendix A and Equation 8).
const (
	rhoCp = 1.205 * 1.0 // air density (kg/m³) × specific heat (kJ/(kg·°C))
)

func cop(tau float64) float64 { return 0.0068*tau*tau + 0.0008*tau + 0.458 }

// plantState is the benchmark's own evaluation of one operating point.
type plantState struct {
	inlet []float64 // °C per thermal unit (CRACs first)
	total float64   // kW: compute plus CRAC power
}

// evalPlant computes inlet temperatures from the heat-flow fixed point
// (Tin = A·Tout with A[j][i] = α[i][j]·F_i/F_j, node Tout = Tin +
// P/(ρ·Cp·F), CRAC Tout fixed), then CRAC power from the heat balance and
// the CoP curve.
func evalPlant(dc *model.DataCenter, cracOut, nodePower []float64) (*plantState, error) {
	nc, nn := len(dc.CRACs), len(dc.Nodes)
	n := nc + nn
	if len(cracOut) != nc || len(nodePower) != nn {
		return nil, fmt.Errorf("got %d outlets and %d node powers for %d CRACs and %d nodes",
			len(cracOut), len(nodePower), nc, nn)
	}
	flow := make([]float64, n)
	for i, c := range dc.CRACs {
		flow[i] = c.Flow
	}
	for j, node := range dc.Nodes {
		flow[nc+j] = dc.NodeTypes[node.Type].AirFlow
	}
	a := func(dst, src int) float64 { return dc.Alpha[src][dst] * flow[src] / flow[dst] }

	// Node outlets x solve x_j − Σ_nodes A[j][i]·x_i = Σ_CRACs A[j][c]·Tc + P_j/(ρCpF_j).
	m := make([][]float64, nn)
	for j := 0; j < nn; j++ {
		row := make([]float64, nn+1)
		row[j] = 1
		rhs := nodePower[j] / (rhoCp * flow[nc+j])
		for i := 0; i < nn; i++ {
			row[i] -= a(nc+j, nc+i)
		}
		for c := 0; c < nc; c++ {
			rhs += a(nc+j, c) * cracOut[c]
		}
		row[nn] = rhs
		m[j] = row
	}
	x, err := gaussSolve(m)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	copy(out, cracOut)
	copy(out[nc:], x)
	st := &plantState{inlet: make([]float64, n)}
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			st.inlet[d] += a(d, s) * out[s]
		}
	}
	for _, p := range nodePower {
		st.total += p
	}
	for c := 0; c < nc; c++ {
		if heat := rhoCp * flow[c] * (st.inlet[c] - cracOut[c]); heat > 0 {
			st.total += heat / cop(cracOut[c])
		}
	}
	return st, nil
}

// gaussSolve solves the augmented system m (n rows of n+1) by Gaussian
// elimination with partial pivoting.
func gaussSolve(m [][]float64) ([]float64, error) {
	n := len(m)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-14 {
			return nil, fmt.Errorf("heat-flow system is singular at column %d", col)
		}
		m[col], m[p] = m[p], m[col]
		piv := m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / piv[col]
			if f == 0 {
				continue
			}
			row := m[r]
			for k := col; k <= n; k++ {
				row[k] -= f * piv[k]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := m[r][n]
		for k := r + 1; k < n; k++ {
			s -= m[r][k] * x[k]
		}
		x[r] = s / m[r][r]
	}
	return x, nil
}

// checkLimits checks total power against the cap and every inlet against
// its redline.
func checkLimits(dc *model.DataCenter, st *plantState) error {
	if st.total > dc.Pconst*(1+powerTol)+powerTol {
		return fmt.Errorf("total power %.9g kW exceeds the cap %.9g kW", st.total, dc.Pconst)
	}
	nc := len(dc.CRACs)
	for t, tin := range st.inlet {
		red := dc.RedlineNode
		if t < nc {
			red = dc.RedlineCRAC
		}
		if tin > red+tempTol {
			return fmt.Errorf("thermal unit %d inlet %.9g °C exceeds its redline %.9g °C", t, tin, red)
		}
	}
	return nil
}

// checkPlan checks a first-step assignment (P-state per core, desired rate
// TC[i][k] per task type and core, CRAC outlets) against the paper's
// constraints, and the reported reward rate against Σ_i r_i·Σ_k TC(i,k).
// It returns the recomputed plant state.
func checkPlan(dc *model.DataCenter, cracOut []float64, pstates []int, tc [][]float64, reward float64) (*plantState, error) {
	ncores := 0
	for _, node := range dc.Nodes {
		ncores += dc.NodeTypes[node.Type].NumCores
	}
	if len(pstates) != ncores || len(tc) != len(dc.TaskTypes) {
		return nil, fmt.Errorf("plan has %d P-states and %d TC rows for %d cores and %d task types",
			len(pstates), len(tc), ncores, len(dc.TaskTypes))
	}
	nodePower := make([]float64, len(dc.Nodes))
	k := 0
	for j, node := range dc.Nodes {
		nt := &dc.NodeTypes[node.Type]
		powers := nt.CorePowers()
		nodePower[j] = nt.BasePower
		for c := 0; c < nt.NumCores; c, k = c+1, k+1 {
			ps := pstates[k]
			if ps < 0 || ps >= len(powers) {
				return nil, fmt.Errorf("core %d has P-state %d outside [0, %d]", k, ps, len(powers)-1)
			}
			nodePower[j] += powers[ps]
			util := 0.0
			for i, tt := range dc.TaskTypes {
				rate := tc[i][k]
				if rate < -zeroTol {
					return nil, fmt.Errorf("core %d has negative rate %g for task type %d", k, rate, i)
				}
				if rate <= zeroTol {
					continue // LP round-off around a zero rate
				}
				ecs := dc.ECS[i][node.Type][ps]
				if ecs <= 0 {
					return nil, fmt.Errorf("core %d runs task type %d at P-state %d, which cannot execute it", k, i, ps)
				}
				if 1/ecs > tt.RelDeadline+timeTol {
					return nil, fmt.Errorf("core %d: task type %d takes %.9g s, deadline %.9g s", k, i, 1/ecs, tt.RelDeadline)
				}
				util += rate / ecs
			}
			if util > 1+utilTol {
				return nil, fmt.Errorf("core %d utilisation %.9g exceeds 1", k, util)
			}
		}
	}
	want := 0.0
	for i, tt := range dc.TaskTypes {
		sum := 0.0
		for _, v := range tc[i] {
			sum += v
		}
		if sum > tt.ArrivalRate*(1+rateTol)+rateTol {
			return nil, fmt.Errorf("task type %d is planned at %.9g/s, arrival rate %.9g/s", i, sum, tt.ArrivalRate)
		}
		want += tt.Reward * sum
	}
	if !relClose(reward, want, rewardTol) {
		return nil, fmt.Errorf("reported reward rate %.12g, recomputed %.12g", reward, want)
	}
	st, err := evalPlant(dc, cracOut, nodePower)
	if err != nil {
		return nil, err
	}
	if err := checkLimits(dc, st); err != nil {
		return nil, err
	}
	return st, nil
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// coreNodeTypes maps each global core to its node's type.
func coreNodeTypes(dc *model.DataCenter) (nodeType []int) {
	for _, node := range dc.Nodes {
		for c := 0; c < dc.NodeTypes[node.Type].NumCores; c++ {
			nodeType = append(nodeType, node.Type)
		}
	}
	return nodeType
}

// checkTrace checks a simulation's per-task trace: every placed task
// starts no earlier than its arrival, finishes by its deadline, runs for
// exactly its execution time on its core's P-state and never overlaps
// another task on that core; the reward recomputed from the trace equals
// the reported one. With paper set, every decision must also agree with
// the benchmark's own §V.C min-ratio rule, up to exact ties.
func checkTrace(dc *model.DataCenter, pstates []int, tc [][]float64, tasks []workload.Task,
	horizon float64, recs []sim.TaskRecord, res *sim.Result, paper bool) error {
	if len(recs) != len(tasks) {
		return fmt.Errorf("trace has %d records for %d tasks", len(recs), len(tasks))
	}
	nodeType := coreNodeTypes(dc)
	ncores := len(nodeType)
	execTime := func(typ, core int) float64 {
		ecs := dc.ECS[typ][nodeType[core]][pstates[core]]
		if ecs <= 0 {
			return math.Inf(1)
		}
		return 1 / ecs
	}
	freeAt := make([]float64, ncores)
	counts := make([][]int, len(dc.TaskTypes))
	for i := range counts {
		counts[i] = make([]int, ncores)
	}
	var total, window float64
	completed, dropped := 0, 0
	for n, rec := range recs {
		task := tasks[n]
		if rec.ID != task.ID || rec.Type != task.Type || rec.Arrival != task.Arrival || rec.Deadline != task.Deadline {
			return fmt.Errorf("record %d does not describe task %d", n, task.ID)
		}
		var want int
		if paper {
			want = minRatioPick(task, execTime, freeAt, counts, tc, ncores)
		}
		if rec.Dropped {
			if paper && want >= 0 {
				return fmt.Errorf("task %d was dropped; the min-ratio rule places it on core %d", task.ID, want)
			}
			dropped++
			continue
		}
		if rec.Lost {
			return fmt.Errorf("task %d is lost in a run without faults", task.ID)
		}
		core := rec.Core
		if core < 0 || core >= ncores {
			return fmt.Errorf("task %d placed on core %d of %d", task.ID, core, ncores)
		}
		et := execTime(task.Type, core)
		if math.IsInf(et, 1) {
			return fmt.Errorf("task %d placed on core %d, which cannot run type %d", task.ID, core, task.Type)
		}
		if rec.Start < task.Arrival {
			return fmt.Errorf("task %d starts at %.12g before its arrival %.12g", task.ID, rec.Start, task.Arrival)
		}
		if rec.Completion > task.Deadline+timeTol {
			return fmt.Errorf("task %d completes at %.12g after its deadline %.12g", task.ID, rec.Completion, task.Deadline)
		}
		if math.Abs(rec.Completion-rec.Start-et) > timeTol*math.Max(1, et) {
			return fmt.Errorf("task %d runs %.12g s, its execution time is %.12g s", task.ID, rec.Completion-rec.Start, et)
		}
		if rec.Start < freeAt[core]-timeTol {
			return fmt.Errorf("task %d starts at %.12g on core %d, busy until %.12g", task.ID, rec.Start, core, freeAt[core])
		}
		if paper && want != core {
			if want < 0 {
				return fmt.Errorf("task %d placed on core %d; the min-ratio rule drops it", task.ID, core)
			}
			if !sameKey(task, want, core, execTime, freeAt, counts, tc) {
				return fmt.Errorf("task %d placed on core %d; the min-ratio rule picks core %d", task.ID, core, want)
			}
		}
		freeAt[core] = rec.Completion
		counts[task.Type][core]++
		r := dc.TaskTypes[task.Type].Reward
		total += r
		if rec.Completion <= horizon {
			window += r
		}
		completed++
	}
	if completed != res.Completed || dropped != res.Dropped || res.Lost != 0 {
		return fmt.Errorf("trace counts %d completed and %d dropped, result reports %d, %d (lost %d)",
			completed, dropped, res.Completed, res.Dropped, res.Lost)
	}
	if !relClose(total, res.TotalReward, rewardTol) || !relClose(window, res.WindowReward, rewardTol) {
		return fmt.Errorf("trace reward %.12g (in window %.12g), result reports %.12g (%.12g)",
			total, window, res.TotalReward, res.WindowReward)
	}
	if !relClose(window/horizon, res.WindowRewardRate, rewardTol) {
		return fmt.Errorf("window reward rate %.12g, recomputed %.12g", res.WindowRewardRate, window/horizon)
	}
	return nil
}

// ratioAt is ATC/TC for (type, core) at time now: the count of placed
// tasks per elapsed second over the desired rate; +Inf without a desired
// rate, 0 at time 0.
func ratioAt(typ, core int, now float64, counts [][]int, tc [][]float64) float64 {
	want := tc[typ][core]
	if want <= 0 {
		return math.Inf(1)
	}
	if now <= 0 {
		return 0
	}
	return float64(counts[typ][core]) / now / want
}

// minRatioPick is the §V.C rule: among cores that can finish the task by
// its deadline and whose ratio is at most 1, the smallest ratio, then the
// earliest completion, then the lowest core index; -1 means drop.
func minRatioPick(task workload.Task, execTime func(int, int) float64, freeAt []float64, counts [][]int, tc [][]float64, ncores int) int {
	best, bestRatio, bestDone := -1, 0.0, 0.0
	for k := 0; k < ncores; k++ {
		et := execTime(task.Type, k)
		if math.IsInf(et, 1) {
			continue
		}
		done := math.Max(task.Arrival, freeAt[k]) + et
		if done > task.Deadline+1e-12 {
			continue
		}
		ratio := ratioAt(task.Type, k, task.Arrival, counts, tc)
		if ratio > 1 {
			continue
		}
		if best < 0 || ratio < bestRatio || (ratio == bestRatio && done < bestDone) {
			best, bestRatio, bestDone = k, ratio, done
		}
	}
	return best
}

// sameKey reports whether cores a and b tie exactly under the min-ratio
// rule for this task (same ratio and same completion time).
func sameKey(task workload.Task, a, b int, execTime func(int, int) float64, freeAt []float64, counts [][]int, tc [][]float64) bool {
	key := func(k int) (float64, float64) {
		return ratioAt(task.Type, k, task.Arrival, counts, tc), math.Max(task.Arrival, freeAt[k]) + execTime(task.Type, k)
	}
	ra, da := key(a)
	rb, db := key(b)
	return ra == rb && da == db && rb <= 1
}
