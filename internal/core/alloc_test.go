//go:build !race

// The steady-state allocation budget is asserted only without the race
// detector: -race instruments every allocation and inflates the counts
// the budget pins down.

package core

import (
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/vector"
)

// steadyAllocBudget is the documented per-iteration allocation ceiling
// for warmed-up iterative SpMV at Workers=1/MergeWorkers=1 (DESIGN.md
// §9). The measured steady state is ~6–8 allocs per iteration — the
// returned result vector's bookkeeping, the per-call Stats slices, and
// (with overlap) the pipeline goroutine — against ~1800 before the
// arenas landed. The ceiling leaves headroom for runtime/version noise
// while still failing loudly if a per-record or per-batch allocation
// ever creeps back in.
const steadyAllocBudget = 16

// TestIterateSteadyStateAllocs warms one engine, then measures the
// allocations of further Iterate calls and holds each schedule to the
// per-iteration budget. A k=4 IterateBlock run is held to the same
// budget per (iteration × column).
func TestIterateSteadyStateAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Merge.MergeWorkers = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n, iters = 2048, 4
	a, err := graph.ErdosRenyi(n, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(n, 3)

	for _, overlap := range []bool{false, true} {
		opt := IterateOptions{Iterations: iters, Overlap: overlap, Damping: 0.85}
		// Warm-up: grow every arena to its steady-state capacity.
		if _, err := e.Iterate(a, x, opt); err != nil {
			t.Fatal(err)
		}
		perCall := testing.AllocsPerRun(10, func() {
			if _, err := e.Iterate(a, x, opt); err != nil {
				t.Fatal(err)
			}
		})
		perIter := perCall / iters
		t.Logf("overlap=%v: %.1f allocs/call, %.2f allocs/iteration", overlap, perCall, perIter)
		if perIter > steadyAllocBudget {
			t.Errorf("overlap=%v: %.2f allocs/iteration exceeds budget %d",
				overlap, perIter, steadyAllocBudget)
		}
	}

	const k = 4
	x0s := make([]vector.Dense, k)
	for c := range x0s {
		x0s[c] = randomX(n, int64(10+c))
	}
	opt := IterateOptions{Iterations: iters, Damping: 0.85}
	if _, err := e.IterateBlock(a, x0s, opt); err != nil {
		t.Fatal(err)
	}
	perCall := testing.AllocsPerRun(10, func() {
		if _, err := e.IterateBlock(a, x0s, opt); err != nil {
			t.Fatal(err)
		}
	})
	perColIter := perCall / (iters * k)
	t.Logf("block k=%d: %.1f allocs/call, %.2f allocs/(iteration×column)", k, perCall, perColIter)
	if perColIter > steadyAllocBudget {
		t.Errorf("block k=%d: %.2f allocs/(iteration×column) exceeds budget %d", k, perColIter, steadyAllocBudget)
	}
}
