package bitonic

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mwmerge/internal/types"
)

func TestNewNetworkRejectsNonPowerOfTwo(t *testing.T) {
	for _, w := range []int{0, 3, 6, 100, -4} {
		if _, err := NewNetwork(w); err == nil {
			t.Errorf("width %d accepted", w)
		}
	}
}

func TestNetworkDepthAndComparators(t *testing.T) {
	// Bitonic network of width 2^k has k(k+1)/2 stages and
	// (w/2)·k(k+1)/2 comparators.
	cases := []struct {
		w, depth, comps int
	}{
		{2, 1, 1},
		{4, 3, 6},
		{8, 6, 24},
		{16, 10, 80},
	}
	for _, c := range cases {
		n, err := NewNetwork(c.w)
		if err != nil {
			t.Fatal(err)
		}
		if n.Depth() != c.depth {
			t.Errorf("width %d: depth %d, want %d", c.w, n.Depth(), c.depth)
		}
		if n.Comparators() != c.comps {
			t.Errorf("width %d: %d comparators, want %d", c.w, n.Comparators(), c.comps)
		}
	}
}

func TestSortKeysSortsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
		n, err := NewNetwork(w)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			keys := make([]uint64, w)
			for i := range keys {
				keys[i] = rng.Uint64() % 100
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if err := n.SortKeys(keys); err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if keys[i] != want[i] {
					t.Fatalf("width %d trial %d: got %v want %v", w, trial, keys, want)
				}
			}
		}
	}
}

func TestSortKeysWrongWidth(t *testing.T) {
	n, _ := NewNetwork(4)
	if err := n.SortKeys([]uint64{1, 2}); err == nil {
		t.Error("wrong lane count accepted")
	}
}

func TestSortKeysProperty(t *testing.T) {
	n, _ := NewNetwork(16)
	f := func(raw [16]uint16) bool {
		keys := make([]uint64, 16)
		for i, v := range raw {
			keys[i] = uint64(v)
		}
		if err := n.SortKeys(keys); err != nil {
			return false
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPreSorterStability(t *testing.T) {
	// Records with the same radix must keep their arrival order — the
	// §4.2.1 requirement that keeps each MC input sorted.
	ps, err := NewPreSorter(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := []types.Record{
		{Key: 12, Val: 0}, // radix 0
		{Key: 5, Val: 1},  // radix 1
		{Key: 8, Val: 2},  // radix 0
		{Key: 13, Val: 3}, // radix 1
		{Key: 4, Val: 4},  // radix 0
		{Key: 7, Val: 5},  // radix 3
		{Key: 0, Val: 6},  // radix 0
		{Key: 2, Val: 7},  // radix 2
	}
	if err := ps.Sort(batch); err != nil {
		t.Fatal(err)
	}
	// Expect radix groups 0,1,2,3 in order; within radix 0 arrival order
	// 12, 8, 4, 0 (by Val: 0, 2, 4, 6).
	wantVals := []float64{0, 2, 4, 6, 1, 3, 7, 5}
	for i, r := range batch {
		if r.Val != wantVals[i] {
			t.Fatalf("lane %d: got val %g, want %g (batch %v)", i, r.Val, wantVals[i], batch)
		}
	}
}

func TestPreSorterStabilityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const w = 16
	ps, err := NewPreSorter(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		batch := make([]types.Record, w)
		for i := range batch {
			batch[i] = types.Record{Key: rng.Uint64() % 64, Val: float64(i)}
		}
		orig := append([]types.Record(nil), batch...)
		if err := ps.Sort(batch); err != nil {
			t.Fatal(err)
		}
		// Compare against a stable software sort on radix.
		want := append([]types.Record(nil), orig...)
		sort.SliceStable(want, func(i, j int) bool {
			return want[i].Radix(3) < want[j].Radix(3)
		})
		for i := range want {
			if batch[i] != want[i] {
				t.Fatalf("trial %d lane %d: got %v, want %v", trial, i, batch[i], want[i])
			}
		}
	}
}

func TestPreSorterComparatorBits(t *testing.T) {
	ps, _ := NewPreSorter(16, 4)
	// q=4 radix bits + log2(16)=4 lane bits = 8-bit comparators,
	// far below a 64-bit full-key comparator.
	if got := ps.ComparatorBits(); got != 8 {
		t.Errorf("ComparatorBits = %d, want 8", got)
	}
	if ps.Width() != 16 || ps.Depth() != 10 {
		t.Errorf("width/depth = %d/%d", ps.Width(), ps.Depth())
	}
}

func TestPreSorterRejectsHugeRadix(t *testing.T) {
	if _, err := NewPreSorter(8, 33); err == nil {
		t.Error("radix width 33 accepted")
	}
}

func TestSortRecordsByCustomKey(t *testing.T) {
	n, _ := NewNetwork(4)
	recs := []types.Record{
		{Key: 100, Val: 1}, {Key: 2, Val: 2}, {Key: 50, Val: 3}, {Key: 7, Val: 4},
	}
	// Sort descending by negated key.
	if err := n.SortRecordsBy(recs, func(r types.Record) uint64 { return ^r.Key }); err != nil {
		t.Fatal(err)
	}
	wantKeys := []uint64{100, 50, 7, 2}
	for i, r := range recs {
		if r.Key != wantKeys[i] {
			t.Fatalf("got %v", recs)
		}
	}
	if err := n.SortRecordsBy(recs[:2], nil); err == nil {
		t.Error("wrong width accepted")
	}
}

func TestZeroOnePrinciple(t *testing.T) {
	// Knuth's 0-1 principle: a comparison network sorts all inputs iff
	// it sorts every 0-1 input. Exhaustively verify width 8 (256 cases)
	// and width 16 (65536 cases).
	for _, w := range []int{8, 16} {
		n, err := NewNetwork(w)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<w; mask++ {
			keys := make([]uint64, w)
			ones := 0
			for i := 0; i < w; i++ {
				if mask&(1<<i) != 0 {
					keys[i] = 1
					ones++
				}
			}
			if err := n.SortKeys(keys); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w-ones; i++ {
				if keys[i] != 0 {
					t.Fatalf("width %d mask %b: zeros not first: %v", w, mask, keys)
				}
			}
			for i := w - ones; i < w; i++ {
				if keys[i] != 1 {
					t.Fatalf("width %d mask %b: ones not last: %v", w, mask, keys)
				}
			}
		}
	}
}

// The two sorts below are the network-correctness oracle: they run the
// comparator schedule over arbitrary keys, so the tests can check that
// NewNetwork builds a sorting network at all (the zero-one principle,
// exhaustive and random inputs) before PreSorter relies on it.

// SortKeys sorts a slice of uint64 keys in place. len(keys) must equal the
// network width.
func (n *Network) SortKeys(keys []uint64) error {
	if len(keys) != n.Width {
		return fmt.Errorf("bitonic: got %d lanes, network width %d", len(keys), n.Width)
	}
	for _, stage := range n.Stages {
		for _, c := range stage {
			if (keys[c.I] > keys[c.J]) == c.Asc {
				keys[c.I], keys[c.J] = keys[c.J], keys[c.I]
			}
		}
	}
	return nil
}

// SortRecordsBy sorts records in place ordered by keyOf(record).
// len(recs) must equal the network width. The comparison uses only the
// derived key, mirroring hardware that compares a q-bit radix rather than
// the full record key.
func (n *Network) SortRecordsBy(recs []types.Record, keyOf func(types.Record) uint64) error {
	if len(recs) != n.Width {
		return fmt.Errorf("bitonic: got %d lanes, network width %d", len(recs), n.Width)
	}
	lanes := make([]lane, len(recs))
	for i, r := range recs {
		lanes[i] = lane{key: keyOf(r), rec: r}
	}
	for _, stage := range n.Stages {
		for _, c := range stage {
			if (lanes[c.I].key > lanes[c.J].key) == c.Asc {
				lanes[c.I], lanes[c.J] = lanes[c.J], lanes[c.I]
			}
		}
	}
	for i := range recs {
		recs[i] = lanes[i].rec
	}
	return nil
}
