package scenarios

import "testing"

// TestFailoverInvariants runs every failover cell both ways (BFD +
// standby cache vs SNMP-poll detection) and checks the 10x latency and
// stall-ratio invariants between them.
func TestFailoverInvariants(t *testing.T) {
	checkSuite(t, FailoverSuite())
}
