package prap

import (
	"math/rand"
	"slices"
	"testing"

	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// skewedLists builds the step-2 input of a power-law SpMV: 16 sorted
// lists over [0, dim) whose lengths fall off as 1/(j+1), so the first
// holds about 30% of the records (one dominant stripe), and whose keys
// cluster toward low rows (key = dim·u², deduplicated per list).
func skewedLists(dim uint64, records int, seed int64) [][]types.Record {
	const nLists = 16
	rng := rand.New(rand.NewSource(seed))
	var h float64
	for j := 1; j <= nLists; j++ {
		h += 1 / float64(j)
	}
	lists := make([][]types.Record, nLists)
	for j := range lists {
		n := int(float64(records) / (h * float64(j+1)))
		keys := make([]uint64, n)
		for i := range keys {
			u := rng.Float64()
			keys[i] = uint64(float64(dim) * u * u)
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		l := make([]types.Record, len(keys))
		for i, k := range keys {
			l[i] = types.Record{Key: k, Val: rng.NormFloat64()}
		}
		lists[j] = l
	}
	return lists
}

// BenchmarkMergeInto times one PRaP step 2 (route, merge, store-queue
// drain) at the rmat-its shape: 16 skewed lists, dim 2^19, p = 16 cores.
// The dense walk runs on 2^20 routed records, the sparse drain on 2^16
// (each also the drain the selection rule picks for its input), each
// with and without a 2^15-key segment stream.
func BenchmarkMergeInto(b *testing.B) {
	const dim = 1 << 19
	for _, tc := range []struct {
		name    string
		force   int
		records int
	}{
		{"dense", drainDense, 1 << 20},
		{"sparse", drainSparse, 1 << 16},
	} {
		lists := skewedLists(dim, tc.records, 1)
		for _, segWidth := range []uint64{0, 1 << 15} {
			name := tc.name
			var publish func(int)
			if segWidth > 0 {
				name += "+publish"
				publish = func(int) {}
			}
			b.Run(name, func(b *testing.B) {
				n, err := New(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				n.drainForce = tc.force
				out := vector.NewDense(dim)
				// One untimed call grows the network's arena, so allocs/op
				// reports the steady state.
				if _, err := n.MergeInto(lists, dim, nil, out, segWidth, publish); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := n.MergeInto(lists, dim, nil, out, segWidth, publish); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
