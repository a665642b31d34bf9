package core

import (
	"math"
	"math/rand"
	"testing"

	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// TestStep1Contract pins step 1's error and statistics contract on
// hand-built stripes: the exact error text of every rejected stripe, the
// Step1Stats it reports (on failure: the counts up to and including the
// failing entry), and the emitted records, compared bitwise.
func TestStep1Contract(t *testing.T) {
	x := []float64{1.5, -2, 0.1, 3}

	// An HDN detector over rows {0, 2} (degree 3 > threshold 2); row 1
	// has degree 1. The filter is sized far above its membership so no
	// regular row is misrouted.
	hdnMat, err := matrix.NewCOO(3, 4, []matrix.Entry{
		{Row: 0, Col: 0, Val: 0.5}, {Row: 0, Col: 1, Val: 0.25}, {Row: 0, Col: 3, Val: -1},
		{Row: 1, Col: 2, Val: 7},
		{Row: 2, Col: 0, Val: 3}, {Row: 2, Col: 2, Val: 0.3}, {Row: 2, Col: 3, Val: 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	det, err := hdn.Build(hdnMat, hdn.Config{Threshold: 2, LoadFactor: 0.1, Hashes: 4, OneMemWordBits: 64, CapacityHint: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range []bool{true, false, true} {
		if det.IsHDN(uint64(row)) != want || det.IsHDNExact(uint64(row)) != want {
			t.Fatalf("detector row %d: IsHDN=%v exact=%v, want %v", row, det.IsHDN(uint64(row)), det.IsHDNExact(uint64(row)), want)
		}
	}

	negZero := math.Copysign(0, -1)
	// dot accumulates a·b pairs left to right, rounding every product as
	// step 1's multiplier does, so expected records match bitwise.
	dot := func(ab ...float64) float64 {
		acc := float64(ab[0] * ab[1])
		for i := 2; i < len(ab); i += 2 {
			acc += float64(ab[i] * ab[i+1])
		}
		return acc
	}
	cases := []struct {
		name    string
		stripe  matrix.Stripe
		xSeg    []float64
		det     *hdn.Detector
		wantErr string
		want    Step1Stats
		recs    []types.Record
	}{
		{
			name: "rows out of order",
			stripe: matrix.Stripe{Index: 3, Width: 2, Rows: 4, Entries: []matrix.Entry{
				{Row: 1, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 3}, {Row: 0, Col: 0, Val: 5}, {Row: 2, Col: 0, Val: 1},
			}},
			xSeg:    x[:2],
			wantErr: "core: stripe 3: vector: sparse records not strictly ascending: key 0 after 1",
			want:    Step1Stats{Products: 3, ScratchpadReads: 3},
			recs:    []types.Record{{Key: 1, Val: dot(2, x[0], 3, x[1])}},
		},
		{
			name: "rows out of order with HDN",
			stripe: matrix.Stripe{Index: 0, Width: 4, Rows: 3, Entries: []matrix.Entry{
				{Row: 1, Col: 2, Val: 7}, {Row: 2, Col: 0, Val: 3}, {Row: 0, Col: 0, Val: 0.5},
			}},
			xSeg:    x,
			det:     det,
			wantErr: "core: stripe 0: vector: sparse records not strictly ascending: key 0 after 2",
			want:    Step1Stats{Products: 3, ScratchpadReads: 3, HDN: hdn.RouteStats{HDNRecords: 2, GeneralRecords: 1}},
			recs:    []types.Record{{Key: 1, Val: dot(7, x[2])}, {Key: 2, Val: dot(3, x[0])}},
		},
		{
			name: "row beyond Rows",
			stripe: matrix.Stripe{Index: 1, Width: 2, Rows: 4, Entries: []matrix.Entry{
				{Row: 0, Col: 0, Val: 1}, {Row: 4, Col: 1, Val: 1}, {Row: 5, Col: 1, Val: 1},
			}},
			xSeg:    x[:2],
			wantErr: "core: stripe 1: vector: key 4 out of dimension 4",
			want:    Step1Stats{Products: 2, ScratchpadReads: 2},
			recs:    []types.Record{{Key: 0, Val: dot(1, x[0])}},
		},
		{
			name: "segment narrower than stripe",
			stripe: matrix.Stripe{Index: 2, Width: 3, Rows: 4, Entries: []matrix.Entry{
				{Row: 0, Col: 0, Val: 1},
			}},
			xSeg:    x[:2],
			wantErr: "core: segment of 2 elements narrower than stripe width 3",
		},
		{
			name: "repeated row at stripe end",
			stripe: matrix.Stripe{Index: 5, Width: 4, Rows: 6, Entries: []matrix.Entry{
				{Row: 0, Col: 2, Val: 0.7},
				{Row: 1, Col: 0, Val: negZero},
				{Row: 5, Col: 0, Val: 0.2}, {Row: 5, Col: 2, Val: 0.3}, {Row: 5, Col: 3, Val: -0.1}, {Row: 5, Col: 1, Val: 1e-17},
			}},
			xSeg: x,
			want: Step1Stats{Products: 6, Records: 3, ScratchpadReads: 6},
			recs: []types.Record{
				{Key: 0, Val: dot(0.7, x[2])},
				{Key: 1, Val: dot(negZero, x[0])},
				{Key: 5, Val: dot(0.2, x[0], 0.3, x[2], -0.1, x[3], 1e-17, x[1])},
			},
		},
		{
			name:   "HDN split",
			stripe: matrix.Stripe{Index: 0, Width: 4, Rows: 3, Entries: hdnMat.Entries},
			xSeg:   x,
			det:    det,
			want: Step1Stats{Products: 7, Records: 3, ScratchpadReads: 7,
				HDN: hdn.RouteStats{HDNRecords: 6, GeneralRecords: 1}},
			recs: []types.Record{
				{Key: 0, Val: dot(0.5, x[0], 0.25, x[1], -1, x[3])},
				{Key: 1, Val: dot(7, x[2])},
				{Key: 2, Val: dot(3, x[0], 0.3, x[2], 1e-3, x[3])},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := vector.NewSparse(int(tc.stripe.Rows), 0)
			st, err := step1Into(v, &tc.stripe, tc.xSeg, tc.det)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
				t.Fatalf("error = %v, want %q", err, tc.wantErr)
			}
			if st != tc.want {
				t.Errorf("stats = %+v, want %+v", st, tc.want)
			}
			if len(v.Recs) != len(tc.recs) {
				t.Fatalf("records = %v, want %v", v.Recs, tc.recs)
			}
			for i, r := range v.Recs {
				w := tc.recs[i]
				if r.Key != w.Key || math.Float64bits(r.Val) != math.Float64bits(w.Val) {
					t.Errorf("record %d = {%d %g (%#x)}, want {%d %g (%#x)}",
						i, r.Key, r.Val, math.Float64bits(r.Val), w.Key, w.Val, math.Float64bits(w.Val))
				}
			}
		})
	}
}

// BenchmarkStep1Stripe times step 1 on one stripe at the rmat-its
// shape: 2^19 rows, a 2^15-column segment and 2^18 row-major nonzeros
// whose rows cluster toward low indices (row = rows·u²), so short and
// long row runs alternate — with and without an HDN detector.
func BenchmarkStep1Stripe(b *testing.B) {
	const (
		rows  = 1 << 19
		width = 1 << 15
		nnz   = 1 << 18
	)
	rng := rand.New(rand.NewSource(1))
	ents := make([]matrix.Entry, nnz)
	for i := range ents {
		u := rng.Float64()
		ents[i] = matrix.Entry{Row: uint64(rows * u * u), Col: uint64(rng.Intn(width)), Val: rng.NormFloat64()}
	}
	a, err := matrix.NewCOO(rows, width, ents)
	if err != nil {
		b.Fatal(err)
	}
	stripe := &matrix.Stripe{Width: width, Rows: rows, Entries: a.Entries}
	xSeg := randomX(width, 2)
	det, err := hdn.Build(a, testHDNConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		det  *hdn.Detector
	}{{"plain", nil}, {"hdn", det}} {
		b.Run(tc.name, func(b *testing.B) {
			v := vector.NewSparse(rows, nnz)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Recs = v.Recs[:0]
				if _, err := step1Into(v, stripe, xSeg, tc.det); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
