package scenarios

import (
	"strings"
	"testing"
)

// checkSuite runs every cell of a suite as a parallel subtest and fails
// on any invariant violation, rendering the cell when it does.
func checkSuite(t *testing.T, suite Suite) {
	for _, spec := range suite.Specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			c, err := suite.Compare(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range c.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			if t.Failed() {
				var b strings.Builder
				suite.Render(&b, c)
				t.Log("\n" + b.String())
			}
		})
	}
}

// TestScenarioMatrix sweeps the full cross product (6 topology families x
// 3 workload/failure schedules): every cell runs the whole Fibbing stack
// twice — controller on and off — and must satisfy MatrixSuite's
// cross-run invariants: the workload saturates plain IGP, the controller
// beats it on settled utilisation or stall time, the realised routing
// approaches the LP optimum, lies touch only the target prefix, playback
// is smooth after convergence, and no protocol machinery errors.
func TestScenarioMatrix(t *testing.T) {
	suite := MatrixSuite()
	if len(suite.Specs) < 12 {
		t.Fatalf("matrix has %d cells, want >= 12", len(suite.Specs))
	}
	checkSuite(t, suite)
}

// TestScenarioRunDeterminism re-runs one cell and requires identical
// headline metrics: the whole stack — IGP flooding, fluid sharing, SNMP
// polling, controller reactions — must be reproducible.
func TestScenarioRunDeterminism(t *testing.T) {
	t.Parallel()
	spec, ok := SpecByName("ring/surge")
	if !ok {
		t.Fatal("ring/surge not in matrix")
	}
	a, err := Run(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.SettledUtilisation != b.SettledUtilisation || a.Lies != b.Lies ||
		a.StallSeconds != b.StallSeconds || a.DeliveredMbit != b.DeliveredMbit ||
		len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("runs differ:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// TestScenarioWaveAccounting checks the per-wave delivery bookkeeping on
// a cell with held (churning) flows: every wave must be accounted, and
// with the controller on the delivered fraction must be high.
func TestScenarioWaveAccounting(t *testing.T) {
	t.Parallel()
	spec, ok := SpecByName("fig1/flash")
	if !ok {
		t.Fatal("fig1/flash not in matrix")
	}
	rep, err := Run(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Waves) < 2 {
		t.Fatalf("only %d waves accounted", len(rep.Waves))
	}
	var exp, got float64
	for _, w := range rep.Waves {
		if w.Expected <= 0 {
			t.Fatalf("wave at %v has expected %v", w.At, w.Expected)
		}
		exp += w.Expected
		got += w.Delivered
	}
	if frac := got / exp; frac < 0.9 {
		t.Fatalf("delivered fraction %.3f with controller, want >= 0.9", frac)
	}
	flows := 0
	for _, w := range rep.Waves {
		flows += w.Flows
	}
	if rep.Sessions != flows {
		t.Fatalf("sessions %d != scheduled flows %d", rep.Sessions, flows)
	}
}

// TestScaleSpecsBuild validates the scaling cells without running them:
// the topologies generate cleanly and every spec is named and bounded.
func TestScaleSpecsBuild(t *testing.T) {
	specs := ScaleSpecs()
	if len(specs) == 0 {
		t.Fatal("no scale specs")
	}
	for _, s := range specs {
		if s.Name == "" || s.Duration <= 0 {
			t.Fatalf("spec missing defaults: %+v", s)
		}
		if _, _, err := s.Topo.Build(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}
