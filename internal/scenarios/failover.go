package scenarios

// Fast failover comparison: each failover cell runs twice with the
// controller on — once with BFD liveness and the standby-plan cache
// (the fast path), once detecting failures at SNMP-poll/IGP timescale
// (the slow path) — and the invariants demand an order-of-magnitude
// gap in both failure-to-commit latency and viewer stall time.

import (
	"fmt"
	"strings"
	"time"
)

const (
	// failoverWindow bounds the post-failure stall accounting: stalls
	// accrued between the first link-down and failoverWindow later are
	// attributed to the failure (Report.FailoverStallSeconds). Six
	// seconds covers the slow path's worst case — the OSPF dead
	// interval (4 s) plus a monitor poll — with slack.
	failoverWindow = 6 * time.Second
	// failoverLatencyFactor is the minimum slow/fast ratio of
	// failure-to-commit latency: BFD detection (~150 ms) against the
	// dead-interval + SNMP-poll pipeline must win by 10x or more.
	failoverLatencyFactor = 10.0
	// failoverStallFactor is the same bar for stall seconds inside the
	// failover window.
	failoverStallFactor = 10.0
	// failoverMinSlowStall keeps the stall ratio non-vacuous: the slow
	// path must demonstrably hurt viewers (at least a second of stalls)
	// before a ratio over it means anything.
	failoverMinSlowStall = 1.0
)

// FailoverSpecs returns the fast-failover cells: failure schedules over
// three topology families, each with BFD liveness and a 3-deep standby
// cache. FailoverSuite runs each against its SNMP-timescale twin.
func FailoverSpecs() []Spec {
	specs := []Spec{
		{Topo: TopoSpec{Family: "fig1"}, Workload: "steady", Failure: "hotlink",
			Seed: 21, BFD: true, StandbyK: 3},
		{Topo: TopoSpec{Family: "abilene"}, Workload: "steady", Failure: "cascade",
			Seed: 22, BFD: true, StandbyK: 3},
		{Topo: TopoSpec{Family: "fattree", Size: 4, Seed: 2}, Workload: "steady", Failure: "hotlink",
			Seed: 23, BFD: true, StandbyK: 3},
	}
	for i := range specs {
		specs[i] = specs[i].withDefaults()
	}
	return specs
}

// failoverSummary renders one run's failover line for Render.
func failoverSummary(r *Report) string {
	lat, commit := "-", "-"
	if r.FailoverLatency >= 0 {
		lat = r.FailoverLatency.String()
	}
	if r.FailoverCommitAt >= 0 {
		commit = r.FailoverCommitAt.String()
	}
	s := fmt.Sprintf("%-28s commit=%s latency=%s window-stalls=%.1fs",
		r.Scenario, commit, lat, r.FailoverStallSeconds)
	if r.BFDSessions > 0 {
		s += fmt.Sprintf(" bfd-downs=%d standby=%d/%d/%d (hit/stale/miss)",
			r.BFDLinkDowns, r.StandbyHits, r.StandbyStale, r.StandbyMisses)
	}
	return s
}

// FailoverSuite is the fast-failover comparison: each failover cell
// runs with the controller on twice — as specified, with BFD and the
// standby cache ("fast"), and stripped back to SNMP-poll failure
// detection ("slow") — and the fast run must win by an order of
// magnitude.
func FailoverSuite() Suite {
	return Suite{
		Specs: FailoverSpecs(),
		Variants: []Variant{
			{Name: "fast", Ctrl: true},
			{Name: "slow", Ctrl: true, Edit: snmpTwin},
		},
		Invariants: []Invariant{failsOverFast("fast", "slow"), noErrors},
		Summary:    failoverSummary,
	}
}

// snmpTwin strips a failover cell back to SNMP-poll failure detection;
// its name swaps the "+bfd" suffix for "+snmp".
func snmpTwin(s Spec) Spec {
	s.BFD = false
	s.StandbyK = 0
	s.Name = strings.TrimSuffix(s.Name, "+bfd") + "+snmp"
	return s
}

// failsOverFast checks the fast-failover invariants between the
// BFD+standby run and its SNMP-poll twin.
func failsOverFast(fastName, slowName string) Invariant {
	return func(_ Spec, runs Runs) []string {
		var v violations
		fast, slow := runs[fastName], runs[slowName]
		// The schedule must actually fail a link, and both controllers must
		// have committed a plan after it — otherwise the ratios below
		// compare nothing.
		if fast.FailureAt < 0 || slow.FailureAt < 0 {
			v.add("no link failure scheduled (failure_at fast=%v slow=%v)", fast.FailureAt, slow.FailureAt)
			return v
		}
		if fast.FailoverCommitAt < 0 {
			v.add("fast run never committed a plan after the failure")
		}
		if slow.FailoverCommitAt < 0 {
			v.add("slow run never committed a plan after the failure")
		}
		if len(v) > 0 {
			return v
		}

		// The tentpole ratio: BFD + standby must cut failure-to-commit
		// latency by an order of magnitude.
		if fast.FailoverLatency <= 0 {
			v.add("fast failover latency %v is not positive", fast.FailoverLatency)
		} else if ratio := float64(slow.FailoverLatency) / float64(fast.FailoverLatency); ratio < failoverLatencyFactor {
			v.add("failover latency ratio %.1fx below %.0fx (fast %v, slow %v)",
				ratio, failoverLatencyFactor, fast.FailoverLatency, slow.FailoverLatency)
		}

		// And the viewers must feel it: stalls inside the failover window
		// drop by the same order of magnitude, against a slow baseline that
		// demonstrably hurts.
		if slow.FailoverStallSeconds < failoverMinSlowStall {
			v.add("slow run stalls only %.2fs inside the failover window; ratio would be vacuous",
				slow.FailoverStallSeconds)
		} else if fast.FailoverStallSeconds*failoverStallFactor > slow.FailoverStallSeconds {
			v.add("failover stall ratio below %.0fx (fast %.2fs, slow %.2fs)",
				failoverStallFactor, fast.FailoverStallSeconds, slow.FailoverStallSeconds)
		}

		// The fast path must have gone through the machinery it claims:
		// BFD detected the failure(s) and the standby cache was primed and
		// consulted (every down-event is a hit, a stale entry or a miss).
		if fast.BFDLinkDowns == 0 {
			v.add("fast run recorded no BFD down events")
		}
		if fast.StandbyPrecomputed == 0 {
			v.add("standby cache never precomputed a plan")
		}
		if fast.StandbyHits+fast.StandbyStale+fast.StandbyMisses == 0 {
			v.add("standby cache never consulted on failure")
		}
		return v
	}
}
