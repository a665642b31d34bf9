package prap

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// orderedOracle is the bitwise reference for one merge: each key's
// records are summed left to right in (list index, position) order — the
// merge kernel's visit order — and the sum is then added once onto yIn
// (or +0.0), as the store queue does.
func orderedOracle(lists [][]types.Record, dim uint64, yIn vector.Dense) vector.Dense {
	sums := make([]float64, dim)
	seen := make([]bool, dim)
	for _, l := range lists {
		for _, r := range l {
			if seen[r.Key] {
				sums[r.Key] += r.Val
			} else {
				sums[r.Key], seen[r.Key] = r.Val, true
			}
		}
	}
	out := vector.NewDense(int(dim))
	copy(out, yIn)
	for k := range out {
		out[k] += sums[k]
	}
	return out
}

// TestMergeKernelBitIdentity pins the merge kernel's accumulation order
// at the network level: at every Q × MergeWorkers combination, with and
// without a y input, the dense output must equal orderedOracle bitwise.
// Any change of the kernel's (key, source index) visit order would
// reassociate a float sum and flip bits here.
func TestMergeKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, q := range []uint{0, 2, 4} {
		dim := uint64(1237) // not a multiple of p
		lists := randomLists(rng, 13, dim, 0.2)
		yIn := vector.NewDense(int(dim))
		for i := range yIn {
			yIn[i] = rng.NormFloat64()
		}
		for _, base := range []vector.Dense{nil, yIn} {
			want := orderedOracle(lists, dim, base)
			for _, workers := range []int{0, 1, 2, 3, 8} {
				cfg := smallConfig(q, 32)
				cfg.MergeWorkers = workers
				n, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := n.Merge(lists, dim, base)
				if err != nil {
					t.Fatalf("q=%d workers=%d: %v", q, workers, err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("q=%d workers=%d yIn=%v: y[%d] = %v, want %v (accumulation order changed)",
							q, workers, base != nil, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMergeKernelConcurrentHammer runs concurrent merges against the
// same network, so the contended-arena fallback and the per-core
// workspace reuse both get exercised under -race; every result must
// stay bit-identical to a sequential network's.
func TestMergeKernelConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dim := uint64(511)
	lists := randomLists(rng, 9, dim, 0.25)
	ref := smallConfig(3, 16)
	ref.MergeWorkers = 1
	nr, _ := New(ref)
	want, _, err := nr.Merge(lists, dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	np, _ := New(smallConfig(3, 16))
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				got, _, err := np.Merge(lists, dim, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- "concurrent merge result diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
