package prap

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mwmerge/internal/vector"
)

// TestMergeIntoSegmentStream checks the segment-publishing contract the
// ITS pipeline depends on: publish(s) fires exactly once per segment, in
// strictly ascending order, only after every element of the segment is
// final — at any MergeWorkers setting, with and without a y input.
func TestMergeIntoSegmentStream(t *testing.T) {
	const (
		dim      = 1000
		segWidth = 128
	)
	rng := rand.New(rand.NewSource(7))
	lists := randomLists(rng, 6, dim, 0.2)
	yIn := vector.NewDense(dim)
	for i := range yIn {
		yIn[i] = rng.NormFloat64()
	}

	for _, workers := range []int{1, 0, 4} {
		for _, withY := range []bool{false, true} {
			cfg := smallConfig(2, 64)
			cfg.MergeWorkers = workers
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var base vector.Dense
			if withY {
				base = yIn
			}
			want, wantStats, err := n.Merge(lists, dim, base)
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
				// The contract: a published segment is final. Compare it
				// against the oracle merge while higher keys are still
				// draining.
				lo := seg * segWidth
				hi := lo + segWidth
				if hi > dim {
					hi = dim
				}
				for i := lo; i < hi; i++ {
					if out[i] != want[i] {
						t.Errorf("workers=%d withY=%v: out[%d] = %g at publish(%d), want %g",
							workers, withY, i, out[i], seg, want[i])
						return
					}
				}
			}
			st, err := n.MergeInto(lists, dim, base, out, segWidth, publish)
			if err != nil {
				t.Fatalf("MergeInto: %v", err)
			}

			segs := (dim + segWidth - 1) / segWidth
			if len(pubs) != segs {
				t.Fatalf("workers=%d withY=%v: %d publishes, want %d", workers, withY, len(pubs), segs)
			}
			for i, s := range pubs {
				if s != i {
					t.Fatalf("workers=%d withY=%v: publish order %v not ascending", workers, withY, pubs)
				}
			}
			if d := out.MaxAbsDiff(want); d != 0 {
				t.Errorf("workers=%d withY=%v: MergeInto diverged from Merge by %g", workers, withY, d)
			}
			if st.Emitted != wantStats.Emitted || st.Injected != wantStats.Injected {
				t.Errorf("workers=%d withY=%v: stats (%d emitted, %d injected) != Merge's (%d, %d)",
					workers, withY, st.Emitted, st.Injected, wantStats.Emitted, wantStats.Injected)
			}
		}
	}
}

// TestMergeIntoValidates covers the MergeInto-specific error paths: an
// out vector of the wrong length and a publish callback without a
// segment width.
func TestMergeIntoValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lists := randomLists(rng, 3, 256, 0.2)
	n, err := New(smallConfig(1, 16))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := n.MergeInto(lists, 256, nil, vector.NewDense(200), 64, nil); err == nil ||
		!strings.Contains(err.Error(), "out dimension") {
		t.Errorf("short out vector: err = %v, want out-dimension error", err)
	}
	if _, err := n.MergeInto(lists, 256, nil, vector.NewDense(256), 0, func(int) {}); err == nil ||
		!strings.Contains(err.Error(), "segment width") {
		t.Errorf("publish without width: err = %v, want segment-width error", err)
	}
}

// TestStoreQueueBlocks drives the store queue across many blocks: a
// dimension spanning several drainBlock blocks (not a multiple of it or
// of p), and segment widths that do not align to the core count, so
// most blocks start mid-residue-class. Both drains must match the
// exact-order oracle bitwise, publish every segment once in order, and
// report the closed-form statistics.
func TestStoreQueueBlocks(t *testing.T) {
	const dim = 3*drainBlock + 1237
	rng := rand.New(rand.NewSource(31))
	lists := randomLists(rng, 5, dim, 0.02)
	keys := map[uint64]bool{}
	for _, l := range lists {
		for _, r := range l {
			keys[r.Key] = true
		}
	}
	yIn := vector.NewDense(dim)
	for i := range yIn {
		yIn[i] = rng.NormFloat64()
	}
	for _, q := range []uint{0, 4} {
		p := uint64(1) << q
		for _, base := range []vector.Dense{nil, yIn} {
			want := orderedOracle(lists, dim, base)
			for _, force := range []int{drainDense, drainSparse} {
				for _, segWidth := range []uint64{0, 999, drainBlock + 3} {
					cfg := smallConfig(q, 8)
					cfg.MergeWorkers = 2
					n, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					n.drainForce = force
					var pubs []int
					var publish func(int)
					if segWidth > 0 {
						publish = func(seg int) { pubs = append(pubs, seg) }
					}
					out := vector.NewDense(dim)
					st, err := n.MergeInto(lists, dim, base, out, segWidth, publish)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("q=%d yIn=%v drain=%s segWidth=%d", q, base != nil, drainName(force), segWidth)
					for i := range want {
						if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: out[%d] = %x, want %x", label, i, math.Float64bits(out[i]), math.Float64bits(want[i]))
						}
					}
					if segWidth > 0 {
						segs := int((dim + segWidth - 1) / segWidth)
						if len(pubs) != segs {
							t.Fatalf("%s: %d publishes, want %d", label, len(pubs), segs)
						}
						for i, s := range pubs {
							if s != i {
								t.Fatalf("%s: publish %d is segment %d", label, i, s)
							}
						}
					}
					if st.Emitted != dim || st.Injected != dim-uint64(len(keys)) {
						t.Errorf("%s: emitted %d injected %d, want %d and %d", label, st.Emitted, st.Injected, dim, dim-uint64(len(keys)))
					}
					for r, c := range st.PerCoreOutput {
						if want := (dim - uint64(r) + p - 1) / p; c != want {
							t.Errorf("%s: core %d emitted %d, want %d", label, r, c, want)
						}
					}
				}
			}
		}
	}
}
