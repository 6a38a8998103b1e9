package scenarios

import (
	"fmt"
	"time"

	"fibbing.net/fibbing/internal/bfd"
	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

// hotThreshold is the monitor's alarm threshold. It is set explicitly so
// the report's first-hot detection measures against the value the
// monitor uses.
const hotThreshold = 0.85

// flowTrack follows one flow through its life for delivery accounting.
type flowTrack struct {
	wave      int
	rate      float64
	delivered float64 // bytes, high-water from sampling
	session   *video.SimSession
}

// cell is one scenario run: its inputs (the defaulted spec, a freshly
// built topology, the workload and failure schedules derived from it)
// and what the samplers record while it runs (the report, per-flow
// delivery tracks, stall totals snapshotted at the settle and failover
// instants).
type cell struct {
	spec       Spec
	withCtrl   bool
	tp         *topo.Topology
	prefix     string
	waves      []flashcrowd.Wave
	failures   []FailureEvent
	strategies []controller.Strategy
	scoreMode  controller.ScoreMode

	rep             *Report
	tracks          map[netsim.FlowID]*flowTrack
	order           []netsim.FlowID
	stallAtSettle   float64
	demandsAtSettle []topo.Demand
	stallAtFailure  float64
	stallAfterFail  float64
}

// Run executes one scenario with or without the Fibbing controller and
// returns its report. Each call builds a fresh topology and simulation,
// so concurrent Runs (the matrix test's parallel cells) are independent.
// It is the composition of the stages: build the inputs, wire the
// simulation, then schedule, simulate and collect.
func Run(spec Spec, withCtrl bool) (*Report, error) {
	c, err := build(spec, withCtrl)
	if err != nil {
		return nil, err
	}
	sim, err := c.wire()
	if err != nil {
		return nil, err
	}
	return c.run(sim)
}

// build is the first stage: it validates the spec, builds the topology
// and derives the wave and failure schedules.
func build(spec Spec, withCtrl bool) (*cell, error) {
	spec = spec.withDefaults()
	if spec.Viewers < 0 {
		return nil, fmt.Errorf("%s: negative viewer count %d", spec.Name, spec.Viewers)
	}
	if spec.Viewers == 1 {
		// One session carries the whole 1.7x overload as a single
		// indivisible flow: no routing can spread it, so every
		// controller-beats-IGP invariant would fail by construction.
		return nil, fmt.Errorf("%s: a single viewer cannot be load-balanced; use Viewers >= 2", spec.Name)
	}
	tp, prefix, err := spec.Topo.Build()
	if err != nil {
		return nil, err
	}
	e, err := buildEnv(tp, prefix)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	e.viewers = spec.Viewers
	waves, err := buildWaves(spec.Workload, e, spec.Duration, spec.Seed)
	if err != nil {
		return nil, err
	}
	failures, err := buildFailures(spec.Failure, e, spec.Duration)
	if err != nil {
		return nil, err
	}
	// The schedules use absolute event times; a user-shortened duration
	// (fiblab -duration) that cuts events off would silently change the
	// scenario's meaning, so reject it instead.
	var lastEvent time.Duration
	for _, w := range waves {
		lastEvent = max(lastEvent, w.At)
	}
	for _, f := range failures {
		lastEvent = max(lastEvent, f.At)
	}
	if spec.Duration <= lastEvent {
		return nil, fmt.Errorf("%s: duration %v too short: last scheduled event at %v",
			spec.Name, spec.Duration, lastEvent)
	}
	strategies, err := controller.StrategiesByName(spec.Strategies)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	scoreMode, err := controller.ParseScoreMode(spec.ScoreMode)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return &cell{spec: spec, withCtrl: withCtrl, tp: tp, prefix: prefix, waves: waves,
		failures: failures, strategies: strategies, scoreMode: scoreMode}, nil
}

// wire is the second stage: it assembles the simulation. Nothing is
// scheduled on it yet, so a caller may instrument the returned Sim (arm
// a checker ticker, wrap a callback) before handing it to run.
func (c *cell) wire() (*controller.Sim, error) {
	p, _ := c.tp.PrefixByName(c.prefix)
	var bfdCfg *bfd.Config
	if c.spec.BFD {
		bfdCfg = &bfd.Config{Seed: c.spec.Seed}
	}
	sim, err := controller.NewSim(controller.SimOpts{
		Topology:     c.tp,
		Prefix:       c.prefix,
		AttachAt:     c.tp.Name(p.Attachments[0].Node),
		WithCtrl:     c.withCtrl,
		Strategies:   c.strategies,
		TrackPlayers: true,
		SampleEvery:  500 * time.Millisecond,
		VideoSample:  250 * time.Millisecond,
		Monitor:      monitor.Config{HighThreshold: hotThreshold},
		Controller:   controller.Config{ScoreMode: c.scoreMode},
		Workers:      c.spec.Workers,
		BFD:          bfdCfg,
		StandbyK:     c.spec.StandbyK,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.spec.Name, err)
	}
	return sim, nil
}

// run drives a wired simulation through the last three stages: schedule
// the workload and samplers, simulate for the spec's duration, and
// collect the report.
func (c *cell) run(sim *controller.Sim) (*Report, error) {
	if err := c.schedule(sim); err != nil {
		return nil, err
	}
	sim.Run(c.spec.Duration)
	c.collect(sim)
	return c.rep, nil
}

// stallTotal sums every session's stall time so far, in seconds.
func stallTotal(sim *controller.Sim) float64 {
	var s float64
	for _, sess := range sim.Sessions {
		s += sess.QoE().StallTime.Seconds()
	}
	return s
}

// schedule is the third stage: it hooks flow tracking into the runner
// and schedules the failures, the samplers and the waves.
func (c *cell) schedule(sim *controller.Sim) error {
	spec, waves := c.spec, c.waves
	rep := &Report{
		Scenario:         spec.Name,
		Controller:       c.withCtrl,
		ScoreMode:        c.scoreMode.String(),
		Duration:         spec.Duration,
		TargetPrefix:     c.prefix,
		FirstHotAt:       -1,
		FirstReactionAt:  -1,
		ReactionLatency:  -1,
		FailureAt:        -1,
		FailoverCommitAt: -1,
		FailoverLatency:  -1,
	}
	c.rep, c.tracks = rep, make(map[netsim.FlowID]*flowTrack)

	// Map started flows back to their wave: wave w contributes exactly
	// w.Flows OnFlowStarted callbacks at time w.At.
	waveQueue := make(map[time.Duration][]int)
	for i, w := range waves {
		for f := 0; f < w.Flows; f++ {
			waveQueue[w.At] = append(waveQueue[w.At], i)
		}
	}
	prevStarted := sim.Runner.OnFlowStarted
	sim.Runner.OnFlowStarted = func(id netsim.FlowID, rate float64) {
		if prevStarted != nil {
			prevStarted(id, rate) // attaches the video session
		}
		now := sim.Sched.Now()
		q := waveQueue[now]
		wi := -1
		if len(q) > 0 {
			wi, waveQueue[now] = q[0], q[1:]
		}
		tr := &flowTrack{wave: wi, rate: rate}
		if n := len(sim.Sessions); n > 0 {
			tr.session = sim.Sessions[n-1]
		}
		c.tracks[id] = tr
		c.order = append(c.order, id)
		// Departing viewers stop watching: freeze the session's QoE and
		// take a final delivery reading when the hold expires (the Runner
		// removes the flow at the same instant, after this event).
		if wi >= 0 && waves[wi].Hold > 0 {
			sim.Sched.After(waves[wi].Hold, func() {
				if d, ok := sim.Net.Delivered(id); ok {
					tr.delivered = d
				}
				if tr.session != nil {
					tr.session.Stop()
				}
			})
		}
	}

	// Failure schedule.
	for _, f := range c.failures {
		sim.Sched.At(f.At, func() {
			if err := sim.SetLinkState(f.A, f.B, f.Up); err != nil {
				rep.ProtocolErrors = append(rep.ProtocolErrors, err.Error())
			}
		})
	}

	// Samplers: utilisation peaks, first-hot detection, per-flow delivery.
	settleStart := spec.settleStart()
	sim.Sched.NewTicker(250*time.Millisecond, func() {
		u := sim.Net.MaxUtilisation()
		if u > rep.PeakUtilisation {
			rep.PeakUtilisation = u
		}
		now := sim.Sched.Now()
		if now >= settleStart && u > rep.SettledUtilisation {
			rep.SettledUtilisation = u
		}
		if rep.FirstHotAt < 0 && u >= hotThreshold {
			rep.FirstHotAt = now
		}
		c.readDelivered(sim)
	})
	sim.Sched.At(settleStart, func() {
		c.stallAtSettle = stallTotal(sim)
		c.demandsAtSettle = sim.Ctrl.Demands()
	})

	// Failover window accounting: stall totals at the first link-down
	// instant and failoverWindow later bracket the stalls the failure
	// itself causes — the figure the fast-failover invariant compares.
	for _, f := range c.failures {
		if !f.Up {
			rep.FailureAt = f.At
			break
		}
	}
	if rep.FailureAt >= 0 {
		sim.Sched.At(rep.FailureAt, func() { c.stallAtFailure = stallTotal(sim) })
		end := min(rep.FailureAt+failoverWindow, spec.Duration)
		sim.Sched.At(end, func() { c.stallAfterFail = stallTotal(sim) })
	}

	if err := sim.Runner.Schedule(waves); err != nil {
		return fmt.Errorf("%s: %w", spec.Name, err)
	}
	return nil
}

// readDelivered takes a delivery reading for every flow still alive.
func (c *cell) readDelivered(sim *controller.Sim) {
	for id, tr := range c.tracks {
		if d, ok := sim.Net.Delivered(id); ok {
			tr.delivered = d
		}
	}
}

// collect is the last stage: it fills the report from the finished
// simulation's counters and the samplers' snapshots.
func (c *cell) collect(sim *controller.Sim) {
	rep := c.rep
	c.readDelivered(sim)

	rep.FinalUtilisation = sim.Net.MaxUtilisation()
	rep.Events = sim.Sched.Ran()
	igpStats := sim.Domain.Stats()
	rep.SPFIncrementalRuns = igpStats.SPFIncrementalRuns
	rep.SPFFullRuns = igpStats.SPFFullRuns
	netStats := sim.Net.Stats()
	rep.ReshareFull = netStats.ReshareFull
	rep.ReshareIncremental = netStats.ReshareIncremental
	rep.ReshareComponents = netStats.ReshareComponents
	rep.Aggregates = netStats.Aggregates
	par := sim.Sched.Parallel()
	rep.Workers = par.Workers
	rep.ParallelBatches = par.Batches
	rep.ParallelSPFRuns = par.BatchedEvents
	rep.SequentialSPFRuns = par.SoloParallel
	rep.MaxBatch = par.MaxBatch
	if len(c.demandsAtSettle) > 0 {
		c.settledBounds(sim)
	}

	agg := video.AggregateQoE(sim.QoE())
	rep.Sessions = agg.Sessions
	rep.SmoothSessions = agg.SmoothSessions
	rep.MeanRebuffer = agg.MeanRebuffer
	rep.StallSeconds = stallTotal(sim)
	rep.LateStallSeconds = rep.StallSeconds - c.stallAtSettle

	rep.Lies = sim.Lies.LieCount()
	rep.LiesByPrefix = make(map[string]int)
	for _, pr := range c.tp.Prefixes() {
		if n := len(sim.Lies.Installed(pr.Name)); n > 0 {
			rep.LiesByPrefix[pr.Name] = n
		}
	}
	rep.Decisions = sim.Ctrl.Decisions
	rep.Strategies = sim.Ctrl.Planner().Strategies()
	rep.StrategyPerf = sim.Ctrl.Planner().Perf()
	artStats := sim.Ctrl.ArtifactStats()
	rep.PlanCacheHits, rep.PlanCacheMisses = artStats.Hits, artStats.Misses
	rep.QoECacheHits, rep.QoECacheMisses = artStats.QoEHits, artStats.QoEMisses
	lpStats := sim.Ctrl.LPStats()
	rep.LPWarmSolves, rep.LPColdSolves, rep.LPFallbackSolves = lpStats.Warm, lpStats.Cold, lpStats.Fallback
	if len(rep.Decisions) > 0 {
		rep.FirstReactionAt = rep.Decisions[0].At
		if rep.FirstHotAt >= 0 && rep.FirstReactionAt >= rep.FirstHotAt {
			rep.ReactionLatency = rep.FirstReactionAt - rep.FirstHotAt
		}
		rep.StrategyWins = make(map[string]int)
		for _, d := range rep.Decisions {
			rep.StrategyWins[d.Strategy]++
		}
	}
	if rep.FailureAt >= 0 {
		rep.FailoverStallSeconds = c.stallAfterFail - c.stallAtFailure
		for _, d := range rep.Decisions {
			if d.At >= rep.FailureAt {
				rep.FailoverCommitAt = d.At
				break
			}
		}
		if rep.FailoverCommitAt >= 0 {
			rep.FailoverLatency = rep.FailoverCommitAt - rep.FailureAt
		}
	}
	rep.StandbyPrecomputed = sim.Ctrl.Standby.Precomputed
	rep.StandbyHits = sim.Ctrl.Standby.Hits
	rep.StandbyMisses = sim.Ctrl.Standby.Misses
	rep.StandbyStale = sim.Ctrl.Standby.Stale
	if sim.BFD != nil {
		bfdStats := sim.BFD.Stats()
		rep.BFDSessions = bfdStats.Sessions
		rep.BFDLinkDowns = bfdStats.DownEvents
		rep.BFDLinkUps = bfdStats.UpEvents
	}
	for _, err := range sim.Ctrl.Errors {
		rep.ControllerErrors = append(rep.ControllerErrors, err.Error())
	}
	for _, err := range sim.Domain.Errors {
		rep.ProtocolErrors = append(rep.ProtocolErrors, err.Error())
	}

	// Per-wave delivery accounting. A wave scheduled past the end of a
	// shortened run never fires: its lifetime clamps to zero.
	rep.Waves = make([]WaveDelivery, len(c.waves))
	for i, w := range c.waves {
		life := max(c.spec.Duration-w.At, 0)
		if w.Hold > 0 && w.Hold < life {
			life = w.Hold
		}
		rep.Waves[i] = WaveDelivery{
			At:       w.At,
			Flows:    w.Flows,
			Expected: w.Rate * life.Seconds() * float64(w.Flows) / 1e6,
		}
	}
	for _, id := range c.order {
		tr := c.tracks[id]
		rep.DeliveredMbit += tr.delivered * 8 / 1e6
		if tr.wave >= 0 {
			rep.Waves[tr.wave].Delivered += tr.delivered * 8 / 1e6
		}
	}
	for i := range rep.Waves {
		if rep.Waves[i].Expected > 0 {
			rep.Waves[i].Fraction = rep.Waves[i].Delivered / rep.Waves[i].Expected
		}
	}
}

// settledBounds fills the analytic figures of the demand set snapshotted
// at the settle start: the LP optimum, the uncapped utilisation of the
// final routing state, and its predicted stall time.
func (c *cell) settledBounds(sim *controller.Sim) {
	tp, prefix, rep, demands := c.tp, c.prefix, c.rep, c.demandsAtSettle
	// The dense-simplex LP bound is for reporting only; beyond the
	// controller's own LP size limit it would dominate the cell's
	// wall-clock (the scale cells would take hours), so skip it and
	// note the degradation. The LP-optimality invariant only fires
	// when LPOptimum is set.
	routers := 0
	for _, n := range tp.Nodes() {
		if !n.Host {
			routers++
		}
	}
	if routers > controller.DefaultMaxLPRouters {
		rep.Notes = append(rep.Notes, fmt.Sprintf("LP bound skipped: %d routers", routers))
	} else if opt, err := te.SolveMinMax(tp, demands); err == nil {
		rep.LPOptimum = opt.MaxUtilisation
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("LP bound unavailable: %v", err))
	}
	liesNow := map[string][]fibbing.Lie{prefix: sim.Lies.Installed(prefix)}
	if loads, err := te.LoadsWithLies(tp, liesNow, demands); err == nil {
		rep.AnalyticUtilisation = te.MaxUtilOfLoads(tp, loads)
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("analytic bound unavailable: %v", err))
	}
	// Predicted QoE of the final routing state: the analytic stall
	// predictor over the settled demands and the controller's member
	// census — the same estimate the qoe score mode plans against.
	// Reported for every run (any score mode, controller on or off)
	// so the score-mode comparison cells can check that predicted and
	// simulated stalls move together.
	views := make(map[string]map[topo.NodeID]fibbing.RouteView, len(tp.Prefixes()))
	for _, pr := range tp.Prefixes() {
		v, err := fibbing.Evaluate(tp, pr.Name, liesNow[pr.Name])
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("QoE prediction unavailable: %v", err))
			return
		}
		views[pr.Name] = v
	}
	if q, err := qoe.PredictPlan(tp, views, demands, sim.Ctrl.QoEModel()); err == nil {
		rep.PredictedStallSeconds = q.StallSeconds
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("QoE prediction unavailable: %v", err))
	}
}
