// Package unknowndirective carries two suppressions: one names an
// analyzer the suite does not have, the other names a suite analyzer
// that is scoped out of this package. Only the first is a finding.
package unknowndirective

// Answer is clean; neither directive suppresses anything.
func Answer() int {
	//cfplint:ignore nosuchanalyzer retired from the suite
	a := 42
	//cfplint:ignore lockorder scoped out of this package, so never stale
	return a
}
