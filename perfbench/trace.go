package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/topo"
)

// span is one timed call across a layer boundary. Offsets are host
// nanoseconds since the simulation started; Parent links a planner span
// to the reaction that caused it (0: no parent).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// seamTotal accumulates a high-volume seam (FIB deltas, demand events,
// session attaches) as a count and a total instead of individual spans.
type seamTotal struct {
	Calls int
	Nanos int64
}

// tracer records spans around the exported seams of one Sim: the
// reaction callbacks into Ctrl.Handle (parents), the strategies the
// planner fans out (children, concurrent), and the data-plane, demand
// and player seams. Spans stay in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	nextID int
	seams  map[string]*seamTotal

	// The reaction in progress (0: none) and its children's intervals;
	// strategy goroutines append to children under mu.
	react    int
	children [][2]int64

	reactions int
	selfNanos int64
	// topNanos sums spans not nested in another span: what the residual
	// subtracts from the simulation's wall time.
	topNanos int64
	alarms   int

	peakAggregates, peakFlows int
	gcCPU, gcCycles           float64
	total                     time.Duration
	// perfDiff is the relative difference between the strategy spans'
	// total and Planner().Perf()'s total nanoseconds.
	perfDiff float64
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), seams: make(map[string]*seamTotal)}
	t.gcCPU, t.gcCycles = gcCounters()
	return t
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// tracedStrategy decorates a stock strategy with a child span per
// Propose call; behaviour is untouched.
type tracedStrategy struct {
	controller.Strategy
	tr *tracer
}

func (s tracedStrategy) Propose(ctx controller.PlanContext) (*controller.Plan, error) {
	start := time.Now()
	plan, err := s.Strategy.Propose(ctx)
	s.tr.child("planner."+s.Name(), start, time.Now())
	return plan, err
}

// strategies wraps a strategy set for SimOpts.Strategies.
func (t *tracer) strategies(set []controller.Strategy) []controller.Strategy {
	out := make([]controller.Strategy, len(set))
	for i, s := range set {
		out[i] = tracedStrategy{Strategy: s, tr: t}
	}
	return out
}

// child records a planner span under the current reaction, if any
// (standby precompute plans in idle events, outside any reaction).
func (t *tracer) child(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s, e := t.since(start), t.since(end)
	t.spans = append(t.spans, span{ID: t.nextID, Parent: t.react, Name: name, Start: s, End: e})
	t.add(name, e-s)
	if t.react != 0 {
		t.children = append(t.children, [2]int64{s, e})
	}
}

func (t *tracer) add(name string, nanos int64) {
	st := t.seams[name]
	if st == nil {
		st = &seamTotal{}
		t.seams[name] = st
	}
	st.Calls++
	st.Nanos += nanos
}

// reactBegin opens a reaction span and returns its id.
func (t *tracer) reactBegin() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.react = t.nextID
	t.children = t.children[:0]
	return t.react
}

// reactEnd closes a reaction span. Its self time is its duration minus
// the union of its children's intervals, which overlap because the
// planner proposes concurrently.
func (t *tracer) reactEnd(id int, kind string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.since(start)
	e := s + d.Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Name: "controller.react." + kind, Start: s, End: e})
	t.reactions++
	t.selfNanos += d.Nanoseconds() - unionLen(t.children, s, e)
	t.topNanos += d.Nanoseconds()
	t.react = 0
}

// unionLen is the length of the union of intervals, clipped to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	// Insertion sort: a reaction has a handful of children.
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else {
			curE = max(curE, e)
		}
	}
	return total + curE - curS
}

// seam times one call through an exported hook. Inside a reaction it is
// that reaction's child; otherwise it is a top-level span.
func (t *tracer) seam(name string, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start).Nanoseconds()
	t.mu.Lock()
	t.add(name, d)
	if t.react != 0 {
		s := t.since(start)
		t.children = append(t.children, [2]int64{s, s + d})
	} else {
		t.topNanos += d
	}
	t.mu.Unlock()
}

// wireSeams wraps the data-plane, demand and player hooks NewSim wired.
func (t *tracer) wireSeams(sim *controller.Sim) {
	if on := sim.Domain.OnFIBDelta; on != nil {
		sim.Domain.OnFIBDelta = func(n topo.NodeID, tb *fib.Table, d *fib.Diff) {
			t.seam("netsim.fib_delta", func() { on(n, tb, d) })
		}
	}
	if on := sim.Runner.OnJoin; on != nil {
		sim.Runner.OnJoin = func(in topo.NodeID, rate float64) { t.seam("controller.demand", func() { on(in, rate) }) }
	}
	if on := sim.Runner.OnLeave; on != nil {
		sim.Runner.OnLeave = func(in topo.NodeID, rate float64) { t.seam("controller.demand", func() { on(in, rate) }) }
	}
	if on := sim.Runner.OnFlowStarted; on != nil {
		sim.Runner.OnFlowStarted = func(id netsim.FlowID, rate float64) { t.seam("video.attach", func() { on(id, rate) }) }
	}
}

// sampleNet keeps the peak data-plane population seen by the samplers.
func (t *tracer) sampleNet(s netsim.Stats) {
	t.peakAggregates = max(t.peakAggregates, s.Aggregates)
	t.peakFlows = max(t.peakFlows, s.Flows)
}

// finish stamps the simulation's wall time (set-up and run).
func (t *tracer) finish(sim *controller.Sim, total time.Duration) {
	t.total = total
	t.sampleNet(sim.Net.Stats())
	cpu, cycles := gcCounters()
	t.gcCPU, t.gcCycles = cpu-t.gcCPU, cycles-t.gcCycles
}

// gcCounters reads the runtime's cumulative GC CPU seconds and cycles.
func gcCounters() (cpuSeconds, cycles float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Float64(), float64(s[1].Value.Uint64())
}

// plannerStrategies are the stock strategies the per-layer table names.
var plannerStrategies = []string{"lp-optimal", "ksp", "local-ecmp", "qoe-greedy", "withdraw"}

// layerMetrics gathers one traced simulation's per-layer figures: span
// totals from the wrappers and counts from the public stats calls.
func (t *tracer) layerMetrics(sim *controller.Sim, o *outcome) map[string]float64 {
	m := make(map[string]float64)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	perf := sim.Ctrl.Planner().Perf()
	var perfNanos, spanNanos int64
	for _, name := range plannerStrategies {
		st := t.seams["planner."+name]
		if st == nil {
			st = &seamTotal{}
		}
		perfNanos += perf[name].Nanos
		spanNanos += st.Nanos
		m["planner."+name+".ms"] = ms(st.Nanos)
		m["planner."+name+".calls"] = float64(st.Calls)
		m["planner."+name+".proposals"] = float64(perf[name].Proposals)
		m["planner."+name+".wins"] = float64(perf[name].Wins)
	}
	if perfNanos > 0 {
		t.perfDiff = math.Abs(float64(perfNanos-spanNanos)) / float64(perfNanos)
	}
	lp := sim.Ctrl.LPStats()
	m["te.lp.warm"], m["te.lp.cold"], m["te.lp.fallback"] = float64(lp.Warm), float64(lp.Cold), float64(lp.Fallback)

	m["controller.react.calls"] = float64(t.reactions)
	m["controller.react.self_ms"] = ms(t.selfNanos)
	m["controller.decisions"] = float64(len(o.Decisions))
	m["controller.commit_ratio"] = ratio(float64(len(o.Decisions)), float64(t.reactions))
	art := sim.Ctrl.ArtifactStats()
	m["controller.plan_cache.hits"] = float64(art.Hits)
	m["controller.plan_cache.misses"] = float64(art.Misses)
	m["controller.plan_cache.hit_ratio"] = ratio(float64(art.Hits), float64(art.Hits+art.Misses))
	m["qoe.cache.hits"], m["qoe.cache.misses"] = float64(art.QoEHits), float64(art.QoEMisses)
	sb := sim.Ctrl.Standby
	m["controller.standby.precomputed"] = float64(sb.Precomputed)
	m["controller.standby.hits"] = float64(sb.Hits)
	m["controller.standby.misses"] = float64(sb.Misses)
	m["controller.standby.stale"] = float64(sb.Stale)
	demand := t.seamOrZero("controller.demand")
	m["controller.demand.calls"], m["controller.demand.ms"] = float64(demand.Calls), ms(demand.Nanos)

	igp := sim.Domain.Stats()
	m["ospf.packets"], m["ospf.bytes"] = float64(igp.PacketsSent), float64(igp.BytesSent)
	m["ospf.spf_full"], m["ospf.spf_incremental"] = float64(igp.SPFFullRuns), float64(igp.SPFIncrementalRuns)

	par := sim.Sched.Parallel()
	m["event.events"] = float64(sim.Sched.Ran())
	m["event.batches"], m["event.batched_events"] = float64(par.Batches), float64(par.BatchedEvents)
	m["event.max_batch"] = float64(par.MaxBatch)
	m["event.residual_ms"] = ms(t.total.Nanoseconds() - t.topNanos)

	if sim.BFD != nil {
		b := sim.BFD.Stats()
		m["bfd.packets_tx"], m["bfd.down"], m["bfd.up"] = float64(b.PacketsTx), float64(b.DownEvents), float64(b.UpEvents)
	} else {
		m["bfd.packets_tx"], m["bfd.down"], m["bfd.up"] = 0, 0, 0
	}

	fd := t.seamOrZero("netsim.fib_delta")
	m["netsim.fib_delta.calls"], m["netsim.fib_delta.ms"] = float64(fd.Calls), ms(fd.Nanos)
	ns := sim.Net.Stats()
	m["netsim.reshare_full"] = float64(ns.ReshareFull)
	m["netsim.reshare_incremental"] = float64(ns.ReshareIncremental)
	m["netsim.reshare_components"] = float64(ns.ReshareComponents)
	m["netsim.aggregates"], m["netsim.flows"] = float64(t.peakAggregates), float64(t.peakFlows)

	at := t.seamOrZero("video.attach")
	m["video.attach.calls"], m["video.attach.ms"] = float64(at.Calls), ms(at.Nanos)
	m["video.sessions"] = float64(len(sim.Sessions))

	m["monitor.alarms"] = float64(t.alarms)
	lies := 0
	for _, d := range o.Decisions {
		lies += d.Lies
	}
	m["southbound.lies_committed"] = float64(lies)
	m["runtime.gc_cpu_ms"] = t.gcCPU * 1e3
	m["runtime.gc_cycles"] = t.gcCycles
	return m
}

func (t *tracer) seamOrZero(name string) seamTotal {
	if st := t.seams[name]; st != nil {
		return *st
	}
	return seamTotal{}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
