package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"thermaldc/internal/telemetry"
)

// tspan is one span of the traced run, the benchmark's or the program's,
// placed in a single tree by time containment.
type tspan struct {
	layer      string
	start, end time.Duration
	pivots     int64
	bench      bool
	parent     int
	children   []int
}

func (s *tspan) dur() time.Duration { return s.end - s.start }

// programLayer names the layer a program span belongs to.
func programLayer(s telemetry.Span) string {
	switch s.Kind {
	case telemetry.SpanEpoch:
		return "controller.epoch"
	case telemetry.SpanRung:
		return "controller.rung"
	case telemetry.SpanStage:
		switch s.Label {
		case 0:
			return "assign.search"
		case 1:
			return "assign.stage1"
		case 2:
			return "assign.stage2"
		default:
			return "assign.stage3"
		}
	case telemetry.SpanCandidate:
		return "tempsearch.candidate"
	case telemetry.SpanLPSolve:
		return "linprog.solve"
	case telemetry.SpanZoneSolve:
		return "zones.zone_solve"
	case telemetry.SpanCoordRound:
		return "zones.master"
	}
	return "program." + s.Kind.String()
}

// layerTimes is the traced rounds' attribution of wall time to layers.
type layerTimes struct {
	rounds   int
	roundSum time.Duration
	self     map[string]time.Duration // self time per layer, all traced rounds
	total    map[string]time.Duration // span time per layer (children included)
	count    map[string]int
	pivots   int64
	resolve  time.Duration // controller solve time: rung spans, or the open loop's stages
	ctlCalls time.Duration // controller.RunContext wall
}

// analyzeSpans builds the span tree of the traced rounds and sums self
// times per layer. A span's parent is the innermost span that contains it
// in time; its self time is its duration minus the union of its
// children's intervals, so concurrent worker spans are not subtracted
// twice.
func analyzeSpans(bench []benchSpan, prog []telemetry.Span) *layerTimes {
	var rounds [][2]time.Duration
	lt := &layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
	for _, b := range bench {
		if b.name == roundSpan {
			rounds = append(rounds, [2]time.Duration{b.start, b.end})
			lt.rounds++
			lt.roundSum += b.end - b.start
		}
	}
	inRound := func(s, e time.Duration) bool {
		for _, r := range rounds {
			if s >= r[0] && e <= r[1] {
				return true
			}
		}
		return false
	}
	var all []tspan
	for _, b := range bench {
		if inRound(b.start, b.end) {
			all = append(all, tspan{layer: b.name, start: b.start, end: b.end, bench: true})
		}
	}
	for _, p := range prog {
		if inRound(p.Start, p.Start+p.Dur) {
			all = append(all, tspan{layer: programLayer(p), start: p.Start, end: p.Start + p.Dur, pivots: p.Pivots})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end
		}
		return a.bench && !b.bench
	})
	var active []int
	for i := range all {
		s := &all[i]
		kept := active[:0]
		for _, a := range active {
			if all[a].end > s.start {
				kept = append(kept, a)
			}
		}
		active = kept
		s.parent = -1
		for _, a := range active {
			if all[a].end < s.end {
				continue
			}
			if p := s.parent; p < 0 || all[a].start > all[p].start || (all[a].start == all[p].start && all[a].end < all[p].end) {
				s.parent = a
			}
		}
		if s.parent >= 0 {
			all[s.parent].children = append(all[s.parent].children, i)
		}
		active = append(active, i)
	}
	for i := range all {
		s := &all[i]
		self := s.dur() - unionLen(all, s.children)
		lt.self[s.layer] += self
		lt.total[s.layer] += s.dur()
		lt.count[s.layer]++
		if s.layer == "linprog.solve" {
			lt.pivots += s.pivots
		}
		if strings.HasPrefix(s.layer, "controller.RunContext") {
			lt.ctlCalls += s.dur()
		}
		if s.layer == "controller.rung" ||
			(strings.HasPrefix(s.layer, "assign.") && s.parent >= 0 && strings.HasPrefix(all[s.parent].layer, "controller.RunContext")) {
			lt.resolve += s.dur()
		}
	}
	return lt
}

// unionLen is the length of the union of the given spans' intervals.
func unionLen(all []tspan, idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, len(idx))
	for i, k := range idx {
		iv[i] = [2]time.Duration{all[k].start, all[k].end}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	cs, ce := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > ce {
			sum += ce - cs
			cs, ce = v[0], v[1]
		} else if v[1] > ce {
			ce = v[1]
		}
	}
	return sum + ce - cs
}

// perRound converts a traced total to seconds per traced round.
func (lt *layerTimes) perRound(d time.Duration) float64 {
	if lt.rounds == 0 {
		return 0
	}
	return d.Seconds() / float64(lt.rounds)
}

// coverage is the summed self time of every layer (the harness's own
// round span excluded) over the traced rounds' wall time.
func (lt *layerTimes) coverage() float64 {
	var sum time.Duration
	for layer, d := range lt.self {
		if layer != roundSpan {
			sum += d
		}
	}
	if lt.roundSum == 0 {
		return 0
	}
	return sum.Seconds() / lt.roundSum.Seconds()
}

// writeChromeTrace writes the program's and the benchmark's spans as one
// Chrome trace-event file (loadable by Perfetto and chrome://tracing).
// Program spans keep their tracks; the benchmark's spans sit on track
// benchTrack.
func writeChromeTrace(path string, tr *telemetry.Tracer, bench []benchSpan, meta map[string]string) error {
	ct := telemetry.ChromeTraceFromSpans(tr.Snapshot(), tr.WallStart())
	base := tr.WallStart().UnixNano()
	for _, b := range bench {
		ct.TraceEvents = append(ct.TraceEvents, telemetry.ChromeEvent{
			Name: b.name,
			Cat:  "e2ebench",
			Ph:   "X",
			TS:   float64(base+b.start.Nanoseconds()) / 1e3,
			Dur:  float64((b.end - b.start).Nanoseconds()) / 1e3,
			TID:  benchTrack,
			Args: telemetry.ChromeArgs{Kind: -1},
		})
	}
	for k, v := range meta {
		ct.Metadata[k] = v
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(ct); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// benchTrack is the Chrome-trace tid of the benchmark's own spans.
const benchTrack = 1000
