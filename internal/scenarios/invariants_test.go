package scenarios

import (
	"strings"
	"testing"
	"time"
)

// TestInvariantsFire drives every violation branch of the three suites'
// invariants with hand-built reports, no simulation: each suite has a
// baseline set of runs that must hold, and each row breaks the baseline
// in one way and must produce exactly that row's violation.
func TestInvariantsFire(t *testing.T) {
	t.Parallel()
	type row struct {
		name string
		edit func(Runs)
		want string
	}
	suites := []struct {
		name  string
		suite Suite
		base  func() Runs
		rows  []row
	}{
		{
			name:  "matrix",
			suite: MatrixSuite(),
			base: func() Runs {
				return Runs{
					"on": {SettledUtilisation: 0.8, StallSeconds: 2, LPOptimum: 0.7,
						AnalyticUtilisation: 0.75, Lies: 2, TargetPrefix: "blue",
						LiesByPrefix: map[string]int{"blue": 2}, ReactionLatency: 2 * time.Second},
					"off": {SettledUtilisation: 1, StallSeconds: 30, ReactionLatency: -1},
				}
			},
			rows: []row{
				{"unstressed", func(r Runs) { r["off"].SettledUtilisation = 0.5 },
					"workload does not stress the IGP path"},
				{"off-lies", func(r Runs) { r["off"].Lies = 1 },
					"controller-off run installed 1 lies"},
				{"no-win", func(r Runs) { r["on"].SettledUtilisation, r["on"].StallSeconds = 1, 30 },
					"controller does not beat IGP"},
				{"lp-gap", func(r Runs) { r["on"].AnalyticUtilisation = 1.2 },
					"exceeds LP optimum"},
				{"no-lies", func(r Runs) { r["on"].Lies = 0 },
					"on run never installed a lie"},
				{"off-target", func(r Runs) { r["on"].LiesByPrefix["red"] = 1 },
					`1 lies touch prefix "red" (target "blue")`},
				{"slow-reaction", func(r Runs) { r["on"].ReactionLatency = 11 * time.Second },
					"reaction latency 11s exceeds"},
				{"late-stalls", func(r Runs) { r["on"].LateStallSeconds = 1 },
					"inside the settle window"},
				{"protocol-errors", func(r Runs) { r["on"].ProtocolErrors = []string{"x"} },
					"protocol errors (on)"},
				{"controller-errors", func(r Runs) { r["off"].ControllerErrors = []string{"x"} },
					"controller errors (off)"},
			},
		},
		{
			name:  "failover",
			suite: FailoverSuite(),
			base: func() Runs {
				return Runs{
					"fast": {FailureAt: 14 * time.Second, FailoverCommitAt: 14200 * time.Millisecond,
						FailoverLatency: 200 * time.Millisecond, FailoverStallSeconds: 0.1,
						BFDLinkDowns: 1, StandbyPrecomputed: 3, StandbyHits: 1},
					"slow": {FailureAt: 14 * time.Second, FailoverCommitAt: 19 * time.Second,
						FailoverLatency: 5 * time.Second, FailoverStallSeconds: 5},
				}
			},
			rows: []row{
				{"no-failure", func(r Runs) { r["fast"].FailureAt = -1 },
					"no link failure scheduled"},
				{"fast-no-commit", func(r Runs) { r["fast"].FailoverCommitAt = -1 },
					"fast run never committed a plan after the failure"},
				{"slow-no-commit", func(r Runs) { r["slow"].FailoverCommitAt = -1 },
					"slow run never committed a plan after the failure"},
				{"zero-latency", func(r Runs) { r["fast"].FailoverLatency = 0 },
					"fast failover latency 0s is not positive"},
				{"latency-ratio", func(r Runs) { r["slow"].FailoverLatency = time.Second },
					"failover latency ratio 5.0x below 10x"},
				{"vacuous-stalls", func(r Runs) { r["slow"].FailoverStallSeconds = 0.5 },
					"ratio would be vacuous"},
				{"stall-ratio", func(r Runs) { r["fast"].FailoverStallSeconds = 1 },
					"failover stall ratio below 10x"},
				{"no-bfd", func(r Runs) { r["fast"].BFDLinkDowns = 0 },
					"fast run recorded no BFD down events"},
				{"no-precompute", func(r Runs) { r["fast"].StandbyPrecomputed = 0 },
					"standby cache never precomputed a plan"},
				{"no-consult", func(r Runs) { r["fast"].StandbyHits = 0 },
					"standby cache never consulted on failure"},
				{"protocol-errors", func(r Runs) { r["slow"].ProtocolErrors = []string{"x"} },
					"protocol errors (slow)"},
			},
		},
		{
			name:  "score-mode",
			suite: QoESuite(),
			base: func() Runs {
				return Runs{
					"qoe": {Scenario: "ring/skew@qoe", Lies: 2, TargetPrefix: "blue",
						LiesByPrefix: map[string]int{"blue": 2}, StallSeconds: 50, PredictedStallSeconds: 70},
					"util": {Scenario: "ring/skew@util", StallSeconds: 160, PredictedStallSeconds: 215},
					"off":  {Scenario: "ring/skew", SettledUtilisation: 1, StallSeconds: 170},
				}
			},
			rows: []row{
				{"unstressed", func(r Runs) { r["off"].SettledUtilisation = 0.5 },
					"workload does not stress the IGP path"},
				{"off-lies", func(r Runs) { r["off"].Lies = 1 },
					"controller-off run installed 1 lies"},
				{"no-lies", func(r Runs) { r["qoe"].Lies = 0 },
					"qoe run never installed a lie"},
				{"off-target", func(r Runs) { r["qoe"].LiesByPrefix["red"] = 1 },
					`1 lies touch prefix "red" (target "blue")`},
				{"simulated", func(r Runs) { r["qoe"].StallSeconds = 159.5 },
					"qoe scoring does not beat util scoring on simulated stalls"},
				{"predicted", func(r Runs) { r["qoe"].PredictedStallSeconds = 215 },
					"qoe scoring does not beat util scoring on predicted stalls"},
				{"worse-than-igp", func(r Runs) { r["off"].StallSeconds = 40 },
					"ring/skew@qoe: 50.00s of stalls vs 40.00s baseline (ring/skew) exceeds +0.00s slack"},
				{"controller-errors", func(r Runs) { r["util"].ControllerErrors = []string{"x"} },
					"controller errors (util)"},
			},
		},
	}
	check := func(s Suite, runs Runs) []string {
		var v []string
		for _, inv := range s.Invariants {
			v = append(v, inv(Spec{}, runs)...)
		}
		return v
	}
	for _, s := range suites {
		if v := check(s.suite, s.base()); len(v) > 0 {
			t.Errorf("%s/baseline: violations %q, want none", s.name, v)
		}
		for _, r := range s.rows {
			runs := s.base()
			r.edit(runs)
			v := check(s.suite, runs)
			if len(v) != 1 || !strings.Contains(v[0], r.want) {
				t.Errorf("%s/%s: violations %q, want exactly one containing %q", s.name, r.name, v, r.want)
			}
		}
	}
}
