package main

import (
	"fmt"
	"math"

	"mwmerge"
)

// gate is the correctness check applied to every measured op: its
// outputs must equal, bit for bit, those of a single-worker engine made
// at set-up, and the op's traffic-ledger delta must equal the
// fingerprint that engine's op left.
type gate struct {
	want   []mwmerge.Dense
	ledger mwmerge.Traffic
}

func (g *gate) check(got []mwmerge.Dense, delta mwmerge.Traffic) error {
	if err := sameBits(g.want, got); err != nil {
		return err
	}
	if delta != g.ledger {
		return fmt.Errorf("ledger delta %+v differs from fingerprint %+v", delta, g.ledger)
	}
	return nil
}

// sameBits reports the first element where got differs from want in its
// float64 bits.
func sameBits(want, got []mwmerge.Dense) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d output vectors, want %d", len(got), len(want))
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			return fmt.Errorf("output %d has %d elements, want %d", c, len(got[c]), len(want[c]))
		}
		for i, w := range want[c] {
			if math.Float64bits(got[c][i]) != math.Float64bits(w) {
				return fmt.Errorf("output %d element %d is %v, want %v", c, i, got[c][i], w)
			}
		}
	}
	return nil
}

// refTolerance bounds the scaled error against the dense reference. The
// engine sums the same products in another order, so each element may
// differ by a few ulps of Σ|aᵢⱼxⱼ| per application; 1e-9 leaves room for
// thousands of terms over several chained applications while a dropped
// or duplicated product still fails by orders of magnitude.
const refTolerance = 1e-9

// scaledError returns maxᵢ |gotᵢ − wantᵢ| / scaleᵢ, where scaleᵢ is
// Σⱼ|aᵢⱼxⱼ| of the last application. A row with zero scale must match
// exactly; if it does not, the error is +Inf.
func scaledError(got, want, scale mwmerge.Dense) (float64, error) {
	if len(got) != len(want) || len(scale) != len(want) {
		return 0, fmt.Errorf("reference lengths %d/%d/%d differ", len(got), len(want), len(scale))
	}
	worst := 0.0
	for i := range want {
		d := math.Abs(got[i] - want[i])
		if d == 0 {
			continue
		}
		if scale[i] == 0 {
			return math.Inf(1), nil
		}
		worst = math.Max(worst, d/scale[i])
	}
	return worst, nil
}

// absProduct returns |A|·|x|, the per-row scale of one application.
func absProduct(a *mwmerge.Matrix, x mwmerge.Dense) mwmerge.Dense {
	s := mwmerge.NewDense(int(a.Rows))
	for _, e := range a.Entries {
		s[e.Row] += math.Abs(e.Val * x[e.Col])
	}
	return s
}

// checkReference compares each output against its dense reference.
func checkReference(got, want, scale []mwmerge.Dense) error {
	for c := range want {
		e, err := scaledError(got[c], want[c], scale[c])
		if err != nil {
			return err
		}
		if e > refTolerance {
			return fmt.Errorf("output %d: scaled error %.3g against the dense reference exceeds %g", c, e, refTolerance)
		}
	}
	return nil
}
