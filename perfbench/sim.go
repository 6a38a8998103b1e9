package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"fibbing.net/fibbing/internal/bfd"
	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

// outcome is one simulation of a workload: host timings, allocation,
// and the simulated (deterministic) results.
type outcome struct {
	// Setup and Run are process CPU time (all threads); Wall is the
	// wall time of both phases together.
	Setup, Run, Wall time.Duration
	// React holds the process CPU time of every controller reaction (one
	// Ctrl.Handle call for an alarm raise/clear or a link down/up).
	React []time.Duration
	Alloc uint64

	Stall, Settled, Delivered float64
	Lies                      int
	Decisions                 []controller.Decision
	Errors                    []string
	// Missing lists the episodes that drew no committed plan.
	Missing []string
	Workers int
	// Fingerprint hashes every simulated output; it must not change
	// between runs of one seed, traced or not.
	Fingerprint string

	// Layer holds the per-layer figures of a traced run (nil otherwise),
	// and PerfDiff the tracer's cross-check against Planner().Perf().
	Layer    map[string]float64
	PerfDiff float64
}

// flowLife tracks one viewer for delivery accounting.
type flowLife struct {
	id       netsim.FlowID
	rate     float64 // bit/s
	from, to time.Duration
	bytes    float64
	session  *video.SimSession
}

// simulate builds the stack through controller.NewSim, drives the
// generated inputs through it and measures. With a tracer it also wraps
// the Sim's exported seams in spans.
func simulate(in *inputs, tr *tracer) (*outcome, error) {
	tp, prefix, err := in.Topo.Build()
	if err != nil {
		return nil, err
	}
	p, _ := tp.PrefixByName(prefix)
	opts := controller.SimOpts{
		Topology:     tp,
		Prefix:       prefix,
		AttachAt:     tp.Name(p.Attachments[0].Node),
		WithCtrl:     true,
		TrackPlayers: true,
		VideoSample:  250 * time.Millisecond,
		Monitor:      monitor.Config{HighThreshold: 0.85},
		Controller:   controller.Config{ScoreMode: in.ScoreMode},
		StandbyK:     in.StandbyK,
	}
	if in.BFD {
		opts.BFD = &bfd.Config{Seed: in.Seed}
	}
	if tr != nil {
		opts.Strategies = tr.strategies(controller.DefaultStrategies())
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	out := &outcome{}
	wallStart, setupStart := time.Now(), cpuNow()
	sim, err := controller.NewSim(opts)
	if err != nil {
		return nil, err
	}
	out.Workers = sim.Sched.Workers()
	wireReactions(sim, out, tr)
	if tr != nil {
		tr.wireSeams(sim)
	}

	// Viewer lifetimes: each flow is credited with what it delivered when
	// its viewer leaves (or at the horizon), and its player stops then.
	holds := make(map[time.Duration][]time.Duration)
	for _, w := range in.Waves {
		for i := 0; i < w.Flows; i++ {
			holds[w.At] = append(holds[w.At], w.Hold)
		}
	}
	var lives []*flowLife
	started := sim.Runner.OnFlowStarted
	sim.Runner.OnFlowStarted = func(id netsim.FlowID, rate float64) {
		started(id, rate)
		now := sim.Sched.Now()
		q := holds[now]
		hold := q[0]
		holds[now] = q[1:]
		fl := &flowLife{id: id, rate: rate, from: now, to: in.Horizon, session: sim.Sessions[len(sim.Sessions)-1]}
		lives = append(lives, fl)
		if hold > 0 {
			fl.to = min(now+hold, in.Horizon)
			sim.Sched.After(hold, func() {
				fl.bytes, _ = sim.Net.Delivered(id)
				fl.session.Stop()
			})
		}
	}
	for _, f := range in.Failures {
		sim.Sched.At(f.At, func() {
			if err := sim.SetLinkState(f.A, f.B, f.Up); err != nil {
				out.Errors = append(out.Errors, err.Error())
			}
		})
	}
	settled := make([]float64, len(in.Settle))
	for i, w := range in.Settle {
		for t := w.From; t <= w.To; t += 500 * time.Millisecond {
			sim.Sched.At(t, func() {
				settled[i] = max(settled[i], roundUtil(sim.Net.MaxUtilisation()))
				if tr != nil {
					tr.sampleNet(sim.Net.Stats())
				}
			})
		}
	}
	if err := sim.Runner.Schedule(in.Waves); err != nil {
		return nil, err
	}
	sim.Run(in.FirstArrival - time.Nanosecond)
	runStart := cpuNow()
	out.Setup = runStart - setupStart

	sim.Run(in.Horizon)
	out.Run = cpuNow() - runStart
	out.Wall = time.Since(wallStart)
	if tr != nil {
		tr.finish(sim, out.Wall)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out.Alloc = after.TotalAlloc - before.TotalAlloc

	var demanded, delivered float64
	for _, fl := range lives {
		if fl.to == in.Horizon {
			fl.bytes, _ = sim.Net.Delivered(fl.id)
		}
		demanded += fl.rate / 8 * (fl.to - fl.from).Seconds()
		delivered += fl.bytes
	}
	if demanded > 0 {
		out.Delivered = delivered / demanded
	}
	for _, s := range sim.Sessions {
		out.Stall += s.QoE().StallTime.Seconds()
	}
	for _, u := range settled {
		out.Settled += u / float64(len(settled))
	}
	out.Lies = sim.Lies.LieCount()
	out.Decisions = sim.Ctrl.Decisions
	for _, err := range sim.Ctrl.Errors {
		out.Errors = append(out.Errors, err.Error())
	}
	for _, err := range sim.Domain.Errors {
		out.Errors = append(out.Errors, err.Error())
	}
	for _, ep := range in.Episodes {
		hit := false
		for _, d := range out.Decisions {
			if d.At >= ep.From && d.At < ep.To {
				hit = true
				break
			}
		}
		if !hit {
			out.Missing = append(out.Missing, ep.Label)
		}
	}
	out.Fingerprint = fingerprint(out)
	if tr != nil {
		out.Layer = tr.layerMetrics(sim, out)
		out.PerfDiff = tr.perfDiff
	}
	return out, nil
}

// wireReactions times every controller reaction: the alarm, BFD and
// adjacency callbacks NewSim wired into Ctrl.Handle. This is the only
// timer inside an untraced run. It reads process CPU time: the scheduler
// waits inside Handle while the planner's goroutines run, so nothing but
// the reaction (and the GC) runs meanwhile. The traced run's span keeps
// wall time.
func wireReactions(sim *controller.Sim, out *outcome, tr *tracer) {
	timed := func(kind string, handle func()) {
		var id int
		var start time.Time
		if tr != nil {
			id = tr.reactBegin()
			start = time.Now()
		}
		cpu := cpuNow()
		handle()
		out.React = append(out.React, cpuNow()-cpu)
		if tr != nil {
			tr.reactEnd(id, kind, start, time.Since(start))
		}
	}
	if on := sim.Poller.OnAlarm; on != nil {
		sim.Poller.OnAlarm = func(a monitor.Alarm) {
			if tr != nil {
				tr.alarms++
			}
			timed("alarm", func() { on(a) })
		}
	}
	if on := sim.Domain.OnAdjacencyChange; on != nil {
		sim.Domain.OnAdjacencyChange = func(l topo.Link, up bool) { timed("adjacency", func() { on(l, up) }) }
	}
	if sim.BFD != nil {
		if on := sim.BFD.OnDown; on != nil {
			sim.BFD.OnDown = func(l topo.Link) { timed("bfd-down", func() { on(l) }) }
		}
		if on := sim.BFD.OnUp; on != nil {
			sim.BFD.OnUp = func(l topo.Link) { timed("bfd-up", func() { on(l) }) }
		}
	}
}

// cpuNow is the CPU time the process has used so far, all threads.
// Unlike wall time it does not count time the host took the CPU away
// (steal), which on a shared VM moves wall timings by up to 2x between
// runs.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// roundUtil keeps 12 significant digits of a utilisation reading:
// netsim.MaxUtilisation sums aggregate rates in map order, so its last
// bits differ between runs of the same simulation.
func roundUtil(u float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(u, 'g', 12, 64), 64)
	return r
}

// fingerprint hashes the simulated outputs: decisions, stall, settled
// utilisation, delivery and live lies. Floats are hashed bit-exact.
func fingerprint(o *outcome) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(o.Decisions)
	fmt.Fprintf(h, "%x %x %x %d %q", math.Float64bits(o.Stall), math.Float64bits(o.Settled),
		math.Float64bits(o.Delivered), o.Lies, o.Errors)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
