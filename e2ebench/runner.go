package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"thermaldc/internal/telemetry"
)

// benchSpan is one span the benchmark records around a public call into
// the program (or around a whole round). Times are offsets from the
// tracer's WallStart, so they line up with the program's own spans.
type benchSpan struct {
	name       string
	start, end time.Duration
}

// callStat collects one named public call's wall times and heap bytes.
type callStat struct {
	durs   []time.Duration
	allocs []uint64
}

// runner drives one workload: it times set-up units, operations, rounds
// and the public calls inside them, and collects the benchmark's spans
// when a round is traced.
type runner struct {
	// tracing is true while a traced round (or the traced set-up replay)
	// runs; rec is then the recorder handed to the program's layers.
	// warmup is true during the untimed first round.
	tracing bool
	warmup  bool
	rec     *telemetry.Recorder
	tracer  *telemetry.Tracer
	spans   []benchSpan

	calls       map[string]*callStat // set-up calls and calls of timed untraced rounds
	tracedCalls map[string]*callStat // calls made while tracing

	setupCPU     []time.Duration
	groups       map[string]*opGroup // untraced operations by group
	groupOrder   []string
	roundDurs    []time.Duration // timed untraced rounds
	roundAllocs  []float64       // heap bytes of each timed untraced round
	tracedRounds []time.Duration
	counts       map[string]float64 // summed over untraced rounds

	attempted, failed int
	opErrs            []string
	checkErrs         []string
}

func newRunner(trace bool) *runner {
	r := &runner{
		calls:       map[string]*callStat{},
		tracedCalls: map[string]*callStat{},
		counts:      map[string]float64{},
		groups:      map[string]*opGroup{},
	}
	if trace {
		r.tracer = telemetry.NewTracer(traceCapacity)
		r.rec = &telemetry.Recorder{Trace: r.tracer}
	}
	return r
}

// recorder is what a workload passes to the program's layers: the traced
// recorder during a traced round, nil (telemetry off) otherwise.
func (r *runner) recorder() *telemetry.Recorder {
	if r.tracing {
		return r.rec
	}
	return nil
}

// now is the current offset on the tracer's clock.
func (r *runner) now() time.Duration { return time.Since(r.tracer.WallStart()) }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// call times one public call into the program under name.
func (r *runner) call(name string, f func() error) error {
	var s0 time.Duration
	if r.tracing {
		s0 = r.now()
	}
	a0 := heapAllocs()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	alloc := heapAllocs() - a0
	stats := r.calls
	if r.tracing {
		r.spans = append(r.spans, benchSpan{name: name, start: s0, end: r.now()})
		stats = r.tracedCalls
	} else if r.warmup {
		return err
	}
	cs := stats[name]
	if cs == nil {
		cs = &callStat{}
		stats[name] = cs
	}
	cs.durs = append(cs.durs, d)
	cs.allocs = append(cs.allocs, alloc)
	return err
}

// setupUnit times one repetition of the workload's set-up (CPU time).
func (r *runner) setupUnit(f func() error) error {
	c0 := cpuTime()
	if err := f(); err != nil {
		return err
	}
	r.setupCPU = append(r.setupCPU, cpuTime()-c0)
	return nil
}

// opGroup collects the untraced wall and CPU times of one operation of a
// round (the same operation on the same input, once per round).
type opGroup struct {
	durs []time.Duration
	cpus []time.Duration
	// sample marks an operation that counts towards op_s; every group
	// counts towards run_s.
	sample bool
}

// op runs one operation of the timed phase. group names the operation
// within the round; a failed operation is counted and the round goes on.
func (r *runner) op(group string, sample bool, f func() error) {
	r.attempted++
	// Start every operation from a collected heap, as testing.B does
	// before a benchmark, so no operation pays for its predecessor's
	// garbage.
	runtime.GC()
	c0 := cpuTime()
	t0 := time.Now()
	if err := f(); err != nil {
		r.failed++
		if len(r.opErrs) < 8 {
			r.opErrs = append(r.opErrs, err.Error())
		}
		return
	}
	if r.tracing || r.warmup {
		return
	}
	g := r.groups[group]
	if g == nil {
		g = &opGroup{sample: sample}
		r.groups[group] = g
		r.groupOrder = append(r.groupOrder, group)
	}
	g.durs = append(g.durs, time.Since(t0))
	g.cpus = append(g.cpus, cpuTime()-c0)
}

// cpuTime is the CPU time (user + system, all threads) the process has
// used. Unlike wall time it excludes the time a virtual machine's CPUs are
// taken by the hypervisor (steal), which comes in epochs of minutes on
// shared hosts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opStats summarises the untraced operations' CPU times (wall times with
// wall set): op_s is the mean over the round's sampled operations of each
// one's median, run_s the sum over all of the round's operations of their
// medians (one round with every operation at its median). Medians per
// operation keep a burst of host noise in one repetition out of the
// figure; the mean over the operations weighs every input of the run
// alike. n counts the samples.
func (r *runner) opStats(wall bool) (opS, runS float64, n int) {
	sampled := 0
	for _, name := range r.groupOrder {
		g := r.groups[name]
		ds := g.cpus
		if wall {
			ds = g.durs
		}
		m := medianDur(ds)
		runS += m
		if g.sample {
			opS += m
			sampled++
			n += len(g.durs)
		}
	}
	if sampled > 0 {
		opS /= float64(sampled)
	}
	return opS, runS, n
}

// count adds v to a per-round counter (timed untraced rounds only).
func (r *runner) count(name string, v float64) {
	if !r.tracing && !r.warmup {
		r.counts[name] += v
	}
}

// checkf records a failed correctness check.
func (r *runner) checkf(format string, args ...any) {
	if len(r.checkErrs) < 16 {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// check records err as a failed correctness check when non-nil.
func (r *runner) check(what string, err error) {
	if err != nil {
		r.checkf("%s: %v", what, err)
	}
}

// traceCapacity sizes the tracer's ring so that a traced round of any
// workload fits; rounds stop being traced once half of it is used.
const traceCapacity = 1 << 19

// traceRoom reports whether the tracer's ring has room for another
// traced round without overwriting spans.
func (r *runner) traceRoom() bool {
	return r.tracer.Count() < traceCapacity/2
}

// round runs one pass of the workload, traced or not, and records its
// wall time and heap allocation (the warm-up round records nothing).
func (r *runner) round(traced bool, f func() error) error {
	r.tracing = traced
	defer func() { r.tracing = false }()
	var s0 time.Duration
	if traced {
		s0 = r.now()
	}
	a0 := heapAllocs()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	switch {
	case traced:
		r.spans = append(r.spans, benchSpan{name: roundSpan, start: s0, end: r.now()})
		r.tracedRounds = append(r.tracedRounds, d)
	case !r.warmup:
		r.roundDurs = append(r.roundDurs, d)
		r.roundAllocs = append(r.roundAllocs, float64(heapAllocs()-a0))
	}
	return err
}

// roundSpan names the benchmark's span around a whole round; its self
// time is harness time, not a layer's.
const roundSpan = "bench.round"

// callMedian is the median wall time (s) of an untraced call, 0 if the
// workload never made it.
func (r *runner) callMedian(name string) float64 {
	cs := r.calls[name]
	if cs == nil {
		return 0
	}
	return medianDur(cs.durs)
}

// tracedCallMedian is callMedian over calls made while tracing.
func (r *runner) tracedCallMedian(name string) float64 {
	cs := r.tracedCalls[name]
	if cs == nil {
		return 0
	}
	return medianDur(cs.durs)
}

// callTotals sums an untraced call's wall time (s), heap bytes and call
// count.
func (r *runner) callTotals(name string) (secs, bytes float64, n int) {
	cs := r.calls[name]
	if cs == nil {
		return 0, 0, 0
	}
	for i, d := range cs.durs {
		secs += d.Seconds()
		bytes += float64(cs.allocs[i])
	}
	return secs, bytes, len(cs.durs)
}

// perRound divides an untraced-round counter by the number of untraced
// rounds.
func (r *runner) perRound(name string) float64 {
	if len(r.roundDurs) == 0 {
		return 0
	}
	return r.counts[name] / float64(len(r.roundDurs))
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) (method "exclusive") computes
// them; with fewer than two values all three are that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
