package prap

import (
	"math/rand"
	"testing"

	"mwmerge/internal/merge"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

func TestPrefetchBufferValidation(t *testing.T) {
	if _, err := NewPrefetchBuffer(nil, 0, 16, 2); err == nil {
		t.Error("zero dpage accepted")
	}
	if _, err := NewPrefetchBuffer(nil, 64, 0, 2); err == nil {
		t.Error("zero record width accepted")
	}
	if _, err := NewPrefetchBuffer(nil, 64, 128, 2); err == nil {
		t.Error("record wider than page accepted")
	}
}

func TestPrefetchPageAccounting(t *testing.T) {
	// One list of 100 records, 16B each, 256B pages → 16 records/page,
	// ceil(100/16) = 7 fetches to drain.
	recs := make([]types.Record, 100)
	for i := range recs {
		recs[i] = types.Record{Key: uint64(i), Val: 1}
	}
	p, err := NewPrefetchBuffer([][]types.Record{recs}, 256, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.RecordsPerPage() != 16 {
		t.Fatalf("RecordsPerPage = %d", p.RecordsPerPage())
	}
	count := 0
	for {
		_, ok := p.Pop(0, 0)
		if !ok {
			break
		}
		count++
	}
	if count != 100 {
		t.Fatalf("drained %d records", count)
	}
	st := p.Stats()
	if st.PageFetches != 7 {
		t.Errorf("PageFetches = %d, want 7", st.PageFetches)
	}
	if st.BytesRead != 7*256 {
		t.Errorf("BytesRead = %d", st.BytesRead)
	}
	if p.BufferBytes() != 256 {
		t.Errorf("BufferBytes = %d", p.BufferBytes())
	}
}

func TestPrefetchPreservesOrderPerRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lists := randomLists(rng, 4, 500, 0.3)
	const q = 2
	p, err := NewPrefetchBuffer(lists, 128, 16, q)
	if err != nil {
		t.Fatal(err)
	}
	for li := range lists {
		for r := uint64(0); r < 1<<q; r++ {
			var prev uint64
			first := true
			for {
				rec, ok := p.Pop(li, r)
				if !ok {
					break
				}
				if rec.Radix(q) != r {
					t.Fatalf("list %d radix %d: got radix %d", li, r, rec.Radix(q))
				}
				if !first && rec.Key < prev {
					t.Fatalf("list %d radix %d: keys out of order", li, r)
				}
				prev, first = rec.Key, false
			}
		}
	}
}

func TestPrefetchMergeEquivalence(t *testing.T) {
	// Merging through the paged prefetch buffer must reproduce the
	// direct PRaP result exactly.
	rng := rand.New(rand.NewSource(2))
	dim := uint64(512)
	lists := randomLists(rng, 6, dim, 0.2)
	const q = 2
	n, _ := New(smallConfig(q, 8))
	want, _, err := n.Merge(lists, dim, nil)
	if err != nil {
		t.Fatal(err)
	}

	p, err := NewPrefetchBuffer(lists, 256, 16, q)
	if err != nil {
		t.Fatal(err)
	}
	got := vector.NewDense(int(dim))
	for r := uint64(0); r < 1<<q; r++ {
		slots := make([][]types.Record, len(lists))
		for li := range lists {
			src := p.SlotSource(li, r).(merge.Source)
			for rec, ok := src.Next(); ok; rec, ok = src.Next() {
				slots[li] = append(slots[li], rec)
			}
		}
		for _, rec := range merge.MergeAccumulate(slots) {
			got[rec.Key] += rec.Val
		}
	}
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Errorf("paged merge differs by %g", d)
	}
	if p.Stats().PageFetches == 0 {
		t.Error("no page fetches recorded")
	}
}

func TestPrefetchBufferConstantAcrossQ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lists := randomLists(rng, 8, 200, 0.2)
	var base uint64
	for q := uint(0); q <= 4; q++ {
		p, err := NewPrefetchBuffer(lists, 512, 16, q)
		if err != nil {
			t.Fatal(err)
		}
		if q == 0 {
			base = p.BufferBytes()
		} else if p.BufferBytes() != base {
			t.Errorf("q=%d changed buffer bytes: %d != %d", q, p.BufferBytes(), base)
		}
	}
}

func TestPrefetchPopOutOfRange(t *testing.T) {
	p, _ := NewPrefetchBuffer([][]types.Record{{}}, 64, 16, 1)
	if _, ok := p.Pop(5, 0); ok {
		t.Error("out-of-range list accepted")
	}
	if _, ok := p.Pop(0, 9); ok {
		t.Error("out-of-range radix accepted")
	}
}
