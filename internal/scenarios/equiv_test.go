package scenarios

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/controller"
)

// runChecked runs spec with the controller on, calling check every period
// of simulated time from a ticker armed on the freshly wired simulation.
func runChecked(t *testing.T, spec Spec, period time.Duration, check func(*controller.Sim)) *Report {
	t.Helper()
	c, err := build(spec, true)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	sim, err := c.wire()
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	sim.Sched.NewTicker(period, func() { check(sim) })
	rep, err := c.run(sim)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return rep
}

// TestAggregateReshareMatchesGlobalSolve is the traffic-plane equivalence
// property over the zoo: every matrix cell (all 6 topology families x 3
// workload/failure schedules) runs with the controller on — so lie churn,
// FIB diffs and, in the flap cells, link failures drive re-path storms —
// while a ticker repeatedly compares the live aggregate/incremental
// allocation against a from-scratch per-flow global max-min solve. Any
// drift beyond 1e-9 (relative) fails the cell.
func TestAggregateReshareMatchesGlobalSolve(t *testing.T) {
	incrementalCells := 0
	for _, spec := range MatrixSpecs() {
		var checks int
		// An off-grid period keeps the checks interleaved between the
		// samplers and wave events rather than synchronised with them.
		rep := runChecked(t, spec, 333*time.Millisecond, func(sim *controller.Sim) {
			checks++
			if err := sim.Net.VerifyMaxMin(1e-9); err != nil {
				t.Errorf("%s @%v: %v", spec.Name, sim.Sched.Now(), err)
			}
		})
		if checks == 0 {
			t.Fatalf("%s: equivalence ticker never fired", spec.Name)
		}
		if rep.ReshareIncremental > 0 {
			incrementalCells++
		}
		if t.Failed() {
			t.Fatalf("%s: aggregate allocation diverged from the per-flow global solve", spec.Name)
		}
	}
	// The property must actually exercise the incremental path, not pass
	// vacuously because every cell fell back to full solves.
	if incrementalCells == 0 {
		t.Fatal("no matrix cell ran a component-scoped reshare")
	}
}

// TestViewerScaledCellEquivalence runs a viewer-sliced surge (the
// flashcrowd-100k shape at testing scale) under the same equivalence
// ticker: thousands of members per aggregate, joins in bulk, and the
// allocation still matches the per-flow solve.
func TestViewerScaledCellEquivalence(t *testing.T) {
	spec := Spec{
		Name:     "flashcrowd-mini",
		Topo:     TopoSpec{Family: "fattree", Size: 4, Seed: 2, Capacity: 100e6},
		Workload: "surge",
		Viewers:  5000,
		Seed:     4,
	}
	rep := runChecked(t, spec, time.Second, func(sim *controller.Sim) {
		if err := sim.Net.VerifyMaxMin(1e-9); err != nil {
			t.Errorf("@%v: %v", sim.Sched.Now(), err)
		}
	})
	if rep.Sessions != 5000 {
		t.Fatalf("sessions = %d, want 5000", rep.Sessions)
	}
	if rep.Aggregates == 0 || rep.Aggregates > 200 {
		t.Fatalf("aggregates = %d for %d viewers: aggregation not compressing", rep.Aggregates, rep.Sessions)
	}
}

// TestFlashcrowd100kCell runs the real 100k-viewer scale cell end to end
// with the controller on — the acceptance bar for the aggregate plane.
// Skipped in -short runs; the scenario-matrix CI gate still covers it
// through fiblab -scale.
func TestFlashcrowd100kCell(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-viewer cell skipped in -short mode")
	}
	spec, ok := scaleSpecByName("flashcrowd-100k")
	if !ok {
		t.Fatal("flashcrowd-100k not in ScaleSpecs")
	}
	start := time.Now()
	rep, err := Run(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	t.Logf("flashcrowd-100k: wall=%v events=%d sessions=%d aggregates=%d reshare=%d inc/%d full settled=%.2f",
		wall, rep.Events, rep.Sessions, rep.Aggregates,
		rep.ReshareIncremental, rep.ReshareFull, rep.SettledUtilisation)
	if rep.Sessions != 100_000 {
		t.Fatalf("sessions = %d, want 100000", rep.Sessions)
	}
	if rep.Aggregates > 1000 {
		t.Fatalf("aggregates = %d: aggregation not compressing 100k viewers", rep.Aggregates)
	}
	if rep.Lies == 0 {
		t.Fatal("controller never reacted to the 100k crowd")
	}
	for _, e := range rep.ProtocolErrors {
		t.Errorf("protocol error: %s", e)
	}
	// Strategy errors are soft as long as a plan committed (the lies
	// check above); log them for visibility.
	for _, e := range rep.ControllerErrors {
		t.Logf("soft controller error: %s", e)
	}
}

func scaleSpecByName(name string) (Spec, bool) {
	for _, s := range ScaleSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
