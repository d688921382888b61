//go:build !race

package main

import "testing"

// TestSmokeServe runs the serve workload at smoke size, traced (the
// traced run also sends an untraced reference rung). The session paces
// its simulation against the wall clock at 60 virtual seconds per second;
// under the race detector the simulation runs several times slower than
// that, falls ever further behind, and no request completes in time, so
// this test is left out of race builds.
func TestSmokeServe(t *testing.T) {
	t.Chdir(t.TempDir()) // the traced run writes its span file under the working directory
	w, ok := lookupWorkload("serve-http")
	if !ok {
		t.Fatal("no serve-http workload")
	}
	smoke(t, w, true)
}
