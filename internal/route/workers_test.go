package route

import (
	"testing"
)

// TestRouteWorkerInvariance: the batched maze router's output never
// depends on Workers — a batch's searches run against the same usage
// snapshot and commit in wire order whatever the pool size.
func TestRouteWorkerInvariance(t *testing.T) {
	nl, pl := gridNetlist(64, 3)
	run := func(workers int) *Result {
		opts := DefaultOptions()
		opts.Workers = workers
		r, err := Route(nl, pl, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 11} {
		got := run(workers)
		if got.Total != serial.Total {
			t.Fatalf("workers=%d: total %g, serial %g", workers, got.Total, serial.Total)
		}
		if got.Relaxations != serial.Relaxations || got.FinalCapacity != serial.FinalCapacity {
			t.Fatalf("workers=%d: relaxation history diverged", workers)
		}
		for i := range serial.WireLength {
			if got.WireLength[i] != serial.WireLength[i] {
				t.Fatalf("workers=%d: wire %d length %g, serial %g",
					workers, i, got.WireLength[i], serial.WireLength[i])
			}
		}
		for i := range serial.Usage {
			if got.Usage[i] != serial.Usage[i] {
				t.Fatalf("workers=%d: usage bin %d = %d, serial %d",
					workers, i, got.Usage[i], serial.Usage[i])
			}
		}
		if got.Rounds != serial.Rounds || got.RipUps != serial.RipUps ||
			got.Expansions != serial.Expansions || got.OverusedPeak != serial.OverusedPeak {
			t.Fatalf("workers=%d: negotiation counters diverged", workers)
		}
	}
}

// TestRouteWorkerInvarianceNegotiated drives the negotiated-congestion
// engine through multiple rip-up rounds on a congested netlist and
// bit-compares the complete result — every path, every length, the
// congestion map, and every deterministic counter — across worker counts.
// Only RoundTimes (diagnostic wall time) is exempt.
func TestRouteWorkerInvarianceNegotiated(t *testing.T) {
	nl, pl := congestedNetlist(t)
	run := func(workers int) *Result {
		opts := DefaultOptions()
		opts.Theta = 3
		opts.Capacity = 2
		opts.Workers = workers
		r, err := Route(nl, pl, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	serial := run(1)
	if serial.Rounds < 2 {
		t.Fatalf("scenario converged in %d rounds; need ≥ 2 to exercise rip-up", serial.Rounds)
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.Total != serial.Total ||
			got.Rounds != serial.Rounds ||
			got.RipUps != serial.RipUps ||
			got.Expansions != serial.Expansions ||
			got.OverusedPeak != serial.OverusedPeak ||
			got.Relaxations != serial.Relaxations ||
			got.FinalCapacity != serial.FinalCapacity {
			t.Fatalf("workers=%d: result diverged from serial:\n got %+v rounds=%d ripups=%d exp=%d\nwant %+v rounds=%d ripups=%d exp=%d",
				workers, got.Total, got.Rounds, got.RipUps, got.Expansions,
				serial.Total, serial.Rounds, serial.RipUps, serial.Expansions)
		}
		for i := range serial.WireLength {
			if got.WireLength[i] != serial.WireLength[i] {
				t.Fatalf("workers=%d: wire %d length %g, serial %g", workers, i, got.WireLength[i], serial.WireLength[i])
			}
		}
		for i := range serial.Usage {
			if got.Usage[i] != serial.Usage[i] {
				t.Fatalf("workers=%d: usage bin %d = %d, serial %d", workers, i, got.Usage[i], serial.Usage[i])
			}
		}
		for i := range serial.Paths {
			if len(got.Paths[i]) != len(serial.Paths[i]) {
				t.Fatalf("workers=%d: wire %d path length %d, serial %d", workers, i, len(got.Paths[i]), len(serial.Paths[i]))
			}
			for j := range serial.Paths[i] {
				if got.Paths[i][j] != serial.Paths[i][j] {
					t.Fatalf("workers=%d: wire %d path[%d] = %d, serial %d", workers, i, j, got.Paths[i][j], serial.Paths[i][j])
				}
			}
		}
	}
}
