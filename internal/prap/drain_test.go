package prap

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// Drain overrides for Network.drainForce: the selection rule of
// sparseDrainOK, or one drain forced so the two can be compared.
const (
	drainRule   = 0
	drainDense  = -1
	drainSparse = 1
)

// drainName labels a drainForce value in failure messages.
func drainName(force int) string {
	switch {
	case force < 0:
		return "dense"
	case force > 0:
		return "sparse"
	}
	return "rule"
}

// mergeWithDrain runs one MergeInto under the given drain override and
// worker count, returning the output and stats.
func mergeWithDrain(t *testing.T, force, workers int, lists [][]types.Record, dim uint64, yIn vector.Dense) (vector.Dense, Stats) {
	t.Helper()
	cfg := smallConfig(2, 64)
	cfg.MergeWorkers = workers
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.drainForce = force
	out := vector.NewDense(int(dim))
	st, err := n.MergeInto(lists, dim, yIn, out, 0, nil)
	if err != nil {
		t.Fatalf("MergeInto(drain=%s): %v", drainName(force), err)
	}
	return out, st
}

// TestDrainModesBitIdentical pins the drain contract: the drain is a
// strategy, never a different result. Output bits and merge stats must
// be equal across the forced dense walk, the forced sparse drain, and
// the selection rule at every worker count, with and without a y input.
func TestDrainModesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim = 997 // not a multiple of the core count
	lists := randomLists(rng, 6, dim, 0.05)
	yIn := vector.NewDense(dim)
	for i := range yIn {
		yIn[i] = rng.NormFloat64()
	}
	for _, workers := range []int{1, 0, 4} {
		for _, base := range []vector.Dense{nil, yIn} {
			want, wantStats := mergeWithDrain(t, drainDense, workers, lists, dim, base)
			for _, force := range []int{drainSparse, drainRule} {
				got, st := mergeWithDrain(t, force, workers, lists, dim, base)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d yIn=%v drain=%s: out[%d] = %x, dense drain has %x",
							workers, base != nil, drainName(force), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				if !reflect.DeepEqual(st, wantStats) {
					t.Errorf("workers=%d yIn=%v drain=%s: stats %+v != dense drain's %+v",
						workers, base != nil, drainName(force), st, wantStats)
				}
			}
		}
	}
}

// TestNegZeroForcesDenseDrain is the -0.0 regression the sparse drain is
// gated on: a yIn holding -0.0 at a missing key must flip to +0.0 in the
// output (the dense walk's injected += 0.0 does that), so the sparse
// path may not run — even when the test hook forces it.
func TestNegZeroForcesDenseDrain(t *testing.T) {
	const dim = 40
	// One record at key 3; keys 0..2 and 4.. are all injected.
	lists := [][]types.Record{{{Key: 3, Val: 2.5}}}
	yIn := vector.NewDense(dim)
	yIn[7] = math.Copysign(0, -1) // -0.0 at a missing key
	if negZeroSafe(yIn) {
		t.Fatal("negZeroSafe accepted a vector holding -0.0")
	}
	for _, force := range []int{drainDense, drainSparse, drainRule} {
		out, _ := mergeWithDrain(t, force, 1, lists, dim, yIn)
		if math.Signbit(out[7]) {
			t.Errorf("drain=%s: out[7] = -0.0, want the injected zero-add to flip it to +0.0", drainName(force))
		}
		if out[3] != 2.5 {
			t.Errorf("drain=%s: out[3] = %g, want 2.5", drainName(force), out[3])
		}
	}
	// The same vector without the -0.0 is sparse-eligible.
	yIn[7] = 0
	if !negZeroSafe(yIn) {
		t.Error("negZeroSafe rejected a clean vector")
	}
}

// TestDrainAutoHeuristic pins the drain selection rule: sparse only
// when the routed record count is at most half the dimension and yIn is
// bit-safe. The forced-sparse test hook skips the profitability check
// but never the safety check.
func TestDrainAutoHeuristic(t *testing.T) {
	n, err := New(smallConfig(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	sparse := func(routed, dim uint64, yIn vector.Dense) bool {
		st := Stats{PerCoreInput: []uint64{routed}}
		return n.sparseDrainOK(dim, yIn, &st)
	}
	if !sparse(50, 100, nil) {
		t.Error("rule: routed == dim/2 should drain sparse")
	}
	if sparse(51, 100, nil) {
		t.Error("rule: routed > dim/2 should drain dense")
	}
	dirty := vector.Dense{math.Copysign(0, -1)}
	if sparse(1, 100, dirty) {
		t.Error("rule: -0.0 in yIn must force the dense walk")
	}
	n.drainForce = drainSparse
	if !sparse(99, 100, nil) {
		t.Error("forced sparse: profitability must not gate the override")
	}
	if sparse(1, 100, dirty) {
		t.Error("forced sparse: -0.0 in yIn must force the dense walk even when overridden")
	}
	n.drainForce = drainDense
	if sparse(1, 100, nil) {
		t.Error("forced dense: the sparse drain must never run")
	}
}

// TestSparseDrainSegmentStream checks that the sparse drain preserves
// the ITS segment-publishing contract — exactly once per segment,
// strictly ascending, only after the segment is final — including the
// all-injected tail segments that hold no merged record.
func TestSparseDrainSegmentStream(t *testing.T) {
	const (
		dim      = 1024
		segWidth = 128
	)
	rng := rand.New(rand.NewSource(9))
	// Records confined to the low quarter: segments 2..7 hold no merged
	// records at all, yet each must still be published in its turn.
	sparse := randomLists(rng, 4, dim/4, 0.3)
	for _, workers := range []int{1, 0, 4} {
		cfg := smallConfig(2, 64)
		cfg.MergeWorkers = workers
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		n.drainForce = drainSparse
		want, _, err := n.Merge(sparse, dim, nil)
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		out := vector.NewDense(dim)
		var mu sync.Mutex
		var pubs []int
		publish := func(seg int) {
			mu.Lock()
			defer mu.Unlock()
			pubs = append(pubs, seg)
			lo, hi := seg*segWidth, (seg+1)*segWidth
			if hi > dim {
				hi = dim
			}
			for i := lo; i < hi; i++ {
				if out[i] != want[i] {
					t.Errorf("workers=%d: out[%d] not final at publish(%d)", workers, i, seg)
					return
				}
			}
		}
		if _, err := n.MergeInto(sparse, dim, nil, out, segWidth, publish); err != nil {
			t.Fatalf("MergeInto: %v", err)
		}
		segs := (dim + segWidth - 1) / segWidth
		if len(pubs) != segs {
			t.Fatalf("workers=%d: %d publishes, want %d", workers, len(pubs), segs)
		}
		for i, s := range pubs {
			if s != i {
				t.Fatalf("workers=%d: publish order %v not ascending", workers, pubs)
			}
		}
	}
}
