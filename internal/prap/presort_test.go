package prap

import (
	"math/rand"
	"sort"
	"testing"

	"mwmerge/internal/bitonic"
	"mwmerge/internal/types"
)

// bitonicRoute is the routing the counting scatter replaced, kept as the
// oracle: every list is cut into p-record batches, the final batch is
// padded with invalidKey lanes, each batch goes through the stable
// bitonic radix pre-sorter, and the sorted lanes are scattered by radix
// with the padding dropped. It returns slots[radix][list] and the number
// of batches pushed through the network.
func bitonicRoute(t *testing.T, q uint, lists [][]types.Record) ([][][]types.Record, uint64) {
	t.Helper()
	p := 1 << q
	ps, err := bitonic.NewPreSorter(p, q)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([][][]types.Record, p)
	for r := range slots {
		slots[r] = make([][]types.Record, len(lists))
	}
	batch := make([]types.Record, p)
	var batches uint64
	for li, list := range lists {
		for off := 0; off < len(list); off += p {
			m := copy(batch, list[off:])
			for i := m; i < p; i++ {
				batch[i] = types.Record{Key: invalidKey}
			}
			if err := ps.Sort(batch); err != nil {
				t.Fatal(err)
			}
			batches++
			for _, rec := range batch {
				if rec.Key != invalidKey {
					r := rec.Radix(q)
					slots[r][li] = append(slots[r][li], rec)
				}
			}
		}
	}
	return slots, batches
}

// presortLists builds n key-sorted lists with heavy key duplication
// (keys drawn from a small space), lengths that are rarely a multiple
// of the batch width, and list 1 always empty.
func presortLists(rng *rand.Rand, n int) [][]types.Record {
	lists := make([][]types.Record, n)
	for li := range lists {
		if li == 1 {
			continue
		}
		l := make([]types.Record, rng.Intn(70))
		for i := range l {
			l[i] = types.Record{Key: uint64(rng.Intn(40)), Val: rng.NormFloat64()}
		}
		sort.SliceStable(l, func(i, j int) bool { return l[i].Key < l[j].Key })
		lists[li] = l
	}
	return lists
}

// TestScatterMatchesBitonicPresort proves the equivalence the routing
// relies on (DESIGN.md §12): a stable scatter by radix fills exactly the
// slots that the stable bitonic pre-sort of each p-record batch followed
// by a scatter fills, record for record and in the same order;
// PresortBatches and PerCoreInput equal the oracle's counts. One scratch
// arena is reused across trials, so stale slot contents would show up
// too.
func TestScatterMatchesBitonicPresort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, q := range []uint{0, 1, 4} {
		n, err := New(smallConfig(q, 16))
		if err != nil {
			t.Fatal(err)
		}
		p := n.cfg.Cores()
		var scr mergeScratch
		for trial := 0; trial < 25; trial++ {
			lists := presortLists(rng, 2+rng.Intn(7))
			want, wantBatches := bitonicRoute(t, q, lists)
			st := Stats{PerCoreInput: make([]uint64, p), PerCoreOutput: make([]uint64, p)}
			got, err := n.routeLists(lists, &st, &scr)
			if err != nil {
				t.Fatalf("p=%d trial %d: %v", p, trial, err)
			}
			if st.PresortBatches != wantBatches {
				t.Errorf("p=%d trial %d: PresortBatches = %d, bitonic route took %d batches",
					p, trial, st.PresortBatches, wantBatches)
			}
			for r := range want {
				var routed uint64
				for li := range lists {
					g, w := got[r][li], want[r][li]
					if len(g) != len(w) {
						t.Fatalf("p=%d trial %d: slot[%d][%d] holds %d records, bitonic route %d",
							p, trial, r, li, len(g), len(w))
					}
					for i := range w {
						if g[i] != w[i] {
							t.Fatalf("p=%d trial %d: slot[%d][%d][%d] = %+v, bitonic route %+v",
								p, trial, r, li, i, g[i], w[i])
						}
					}
					routed += uint64(len(w))
				}
				if st.PerCoreInput[r] != routed {
					t.Errorf("p=%d trial %d: PerCoreInput[%d] = %d, bitonic route has %d records",
						p, trial, r, st.PerCoreInput[r], routed)
				}
			}
		}
	}
}
