package scenarios

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/controller"
)

// Tolerances of the invariant checks. The fluid simulator is
// deterministic but quantised ECMP splits, sampling granularity and
// monitor hysteresis put real slack between the LP optimum and what the
// controller achieves.
const (
	// lpSlack is how far above max(θ*, target utilisation) the analytic
	// utilisation may sit with the controller on: it absorbs ECMP-weight
	// quantisation and tier-1's even (rather than optimal) splits.
	lpSlack = 0.15
	// beatUtilMargin is the minimum settled-utilisation improvement that
	// counts as "beating" the no-controller run.
	beatUtilMargin = 0.02
	// beatStallMargin is the minimum stall-seconds improvement that
	// counts as "beating" the no-controller run.
	beatStallMargin = 1.0
	// saturated is the settled utilisation above which a link counts as
	// saturated (the fluid model caps utilisation at 1.0).
	saturated = 0.98
	// lateStallBudget is the stall time allowed inside the settle window
	// with the controller on ("no stalls after convergence").
	lateStallBudget = 0.75
	// maxReactionLatency bounds alarm-to-decision time (two monitor poll
	// intervals plus scheduling slack).
	maxReactionLatency = 10 * time.Second
	// targetUtilisation is the controller's reaction target, below which
	// it stops optimising.
	targetUtilisation = controller.DefaultTargetUtilisation
)

// violations collects formatted violation lines.
type violations []string

func (v *violations) add(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// igpSaturates checks that the workload actually stresses the network:
// without the controller (run off) the IGP path saturates, and that run
// installs no lies.
func igpSaturates(off string) Invariant {
	return func(_ Spec, runs Runs) []string {
		var v violations
		r := runs[off]
		if r.SettledUtilisation < saturated {
			v.add("workload does not stress the IGP path: settled utilisation %.3f without controller",
				r.SettledUtilisation)
		}
		if r.Lies != 0 {
			v.add("controller-off run installed %d lies", r.Lies)
		}
		return v
	}
}

// beatsIGP checks the tentpole comparison: the controller-on run beats
// plain IGP on settled max utilisation or on stall time, and the
// analytic utilisation of its final routing state approaches the LP
// optimum for the settled demand (or the controller's own target when
// the optimum is below it — the controller stops optimising there). The
// analytic figure is used because the measured one carries per-flow hash
// noise and saturates at 1.0.
func beatsIGP(on, off string) Invariant {
	return func(_ Spec, runs Runs) []string {
		var v violations
		rOn, rOff := runs[on], runs[off]
		utilWin := rOn.SettledUtilisation <= rOff.SettledUtilisation-beatUtilMargin
		stallWin := rOn.StallSeconds <= rOff.StallSeconds-beatStallMargin
		if !utilWin && !stallWin {
			v.add("controller does not beat IGP: settled %.3f vs %.3f, stalls %.1fs vs %.1fs",
				rOn.SettledUtilisation, rOff.SettledUtilisation, rOn.StallSeconds, rOff.StallSeconds)
		}
		if rOn.LPOptimum > 0 {
			bound := max(rOn.LPOptimum, targetUtilisation)
			if rOn.AnalyticUtilisation > bound+lpSlack {
				v.add("analytic utilisation %.3f exceeds LP optimum %.3f (+%.2f slack)",
					rOn.AnalyticUtilisation, rOn.LPOptimum, lpSlack)
			}
		}
		return v
	}
}

// liesOnTarget checks that the named run installed lies, and only on
// the scenario's target prefix.
func liesOnTarget(name string) Invariant {
	return func(_ Spec, runs Runs) []string {
		var v violations
		r := runs[name]
		if r.Lies == 0 {
			v.add("%s run never installed a lie", name)
		}
		for prefix, n := range r.LiesByPrefix {
			if prefix != r.TargetPrefix && n > 0 {
				v.add("%d lies touch prefix %q (target %q)", n, prefix, r.TargetPrefix)
			}
		}
		return v
	}
}

// settles checks that the named run reacts to the first alarm in time
// and plays back smoothly once the settle window starts ("no stalls
// after convergence").
func settles(name string) Invariant {
	return func(_ Spec, runs Runs) []string {
		var v violations
		r := runs[name]
		if r.ReactionLatency > maxReactionLatency {
			v.add("reaction latency %v exceeds %v", r.ReactionLatency, maxReactionLatency)
		}
		if r.LateStallSeconds > lateStallBudget {
			v.add("%.2fs of stalls inside the settle window with the controller on", r.LateStallSeconds)
		}
		return v
	}
}

// StallNoWorseThan checks the never-worsen admissibility contract in QoE
// terms: the named run's simulated stall time may not exceed the
// baseline run's by more than slack seconds.
func StallNoWorseThan(name, baseline string, slack float64) Invariant {
	return func(_ Spec, runs Runs) []string {
		var v violations
		r, base := runs[name], runs[baseline]
		if r.StallSeconds > base.StallSeconds+slack {
			v.add("%s: %.2fs of stalls vs %.2fs baseline (%s) exceeds +%.2fs slack",
				r.Scenario, r.StallSeconds, base.StallSeconds, base.Scenario, slack)
		}
		return v
	}
}

// noErrors checks that no run corrupted the protocol machinery or the
// controller.
func noErrors(_ Spec, runs Runs) []string {
	var v violations
	for _, name := range slices.Sorted(maps.Keys(runs)) {
		r := runs[name]
		if len(r.ProtocolErrors) > 0 {
			v.add("protocol errors (%s): %v", name, r.ProtocolErrors)
		}
		if len(r.ControllerErrors) > 0 {
			v.add("controller errors (%s): %v", name, r.ControllerErrors)
		}
	}
	return v
}
