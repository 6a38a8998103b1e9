package scenarios

import "fmt"

// The score-mode comparison cells: the same topology and schedule run
// once per planner scoring objective, checking that QoE-aware scoring
// actually buys fewer stalled viewer-seconds — predicted and simulated —
// without breaking the never-worsen admissibility contract.

// QoESpecs returns the score-mode comparison cells. The skew schedule
// overloads both of the ring's disjoint directions, so every routing
// saturates and the planner's only real choice is which crowd eats the
// shortfall (see buildWaves); the flashcrowd-qoe cells are the same
// comparison with the overload sliced into tens of thousands of viewers
// at 1 Gbit/s links, driving the score-mode machinery through the
// aggregate traffic plane.
func QoESpecs() []Spec {
	specs := []Spec{
		{Topo: TopoSpec{Family: "ring", Size: 9}, Workload: "skew", Seed: 31},
		{Name: "ring5/skew", Topo: TopoSpec{Family: "ring", Size: 5}, Workload: "skew", Seed: 32},
		{Name: "flashcrowd-qoe-100k", Topo: TopoSpec{Family: "ring", Size: 9, Capacity: 1e9},
			Workload: "skew", Viewers: 100_000, Seed: 33},
	}
	for i := range specs {
		specs[i] = specs[i].withDefaults()
	}
	return specs
}

// QoESuite is the score-mode comparison: each cell runs with QoE
// scoring, with utilisation scoring and without the controller, and
// checks the cross-mode invariants:
//
//   - the workload must actually stress the network (plain IGP saturates
//     and installs no lies),
//   - QoE scoring must commit plans: lies exist and touch only the
//     target prefix,
//   - the tentpole claim: the QoE-scored run ends with strictly fewer
//     simulated stall-seconds than the utilisation-scored run, and its
//     analytic prediction agrees about the direction,
//   - never-worsen, restated in QoE terms: however hot the QoE-scored
//     plan lets a link run, viewers must not stall more than under plain
//     IGP,
//   - no run may corrupt the protocol machinery.
func QoESuite() Suite {
	return Suite{
		Specs: QoESpecs(),
		Variants: []Variant{
			{Name: "qoe", Ctrl: true, Edit: withScoreMode("qoe")},
			{Name: "util", Ctrl: true, Edit: withScoreMode("util")},
			{Name: "off"},
		},
		Invariants: []Invariant{
			igpSaturates("off"),
			liesOnTarget("qoe"),
			qoeBeatsUtil("qoe", "util"),
			StallNoWorseThan("qoe", "off", 0),
			noErrors,
		},
		Summary: func(r *Report) string {
			return fmt.Sprintf("%s predicted-stalls=%.1fs", r.Summary(), r.PredictedStallSeconds)
		},
	}
}

// withScoreMode returns the spec edit that plans under a scoring
// objective; the run's name gains an "@mode" suffix.
func withScoreMode(mode string) func(Spec) Spec {
	return func(s Spec) Spec {
		s.ScoreMode = mode
		s.Name += "@" + mode
		return s
	}
}

// qoeBeatsUtil checks the tentpole comparison on both the simulated and
// the predicted figure: QoE scoring must buy strictly fewer stalled
// seconds than utilisation scoring.
func qoeBeatsUtil(qoeName, utilName string) Invariant {
	return func(_ Spec, runs Runs) []string {
		var v violations
		qoe, util := runs[qoeName], runs[utilName]
		if qoe.StallSeconds > util.StallSeconds-beatStallMargin {
			v.add("qoe scoring does not beat util scoring on simulated stalls: %.1fs vs %.1fs (margin %.1fs)",
				qoe.StallSeconds, util.StallSeconds, beatStallMargin)
		}
		if qoe.PredictedStallSeconds >= util.PredictedStallSeconds {
			v.add("qoe scoring does not beat util scoring on predicted stalls: %.1fs vs %.1fs",
				qoe.PredictedStallSeconds, util.PredictedStallSeconds)
		}
		return v
	}
}
