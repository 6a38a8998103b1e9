package scenarios

import (
	"slices"
	"testing"
)

// TestScoreModeComparison is the CI gate of the QoE tentpole claim: on
// every score-mode cell the qoe-scored run must end with strictly fewer
// stall-seconds — simulated and predicted — than the utilisation-scored
// run of the same topology and schedule, while never stalling viewers
// more than plain IGP (the admissibility contract restated in QoE
// terms). Cells run in parallel; each is three full simulations.
func TestScoreModeComparison(t *testing.T) {
	suite := QoESuite()
	if testing.Short() {
		// The 100k-viewer cell is the most expensive; -short keeps quick
		// loops quick.
		suite.Specs = slices.DeleteFunc(suite.Specs, func(s Spec) bool { return s.Viewers >= 100_000 })
	}
	checkSuite(t, suite)
}
