package core

import (
	"fmt"

	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/merge"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// SpMVSliced computes y = A·x + yIn for problems whose stripe count
// exceeds the merge network's K ways — the "slicing and partitioning
// larger graphs" regime the paper notes prior accelerators fall into
// (§1). Intermediate vectors are merged in batches of K: each batch
// collapses to one combined sorted vector that makes an extra DRAM round
// trip, and passes repeat until at most K lists remain for the final
// PRaP merge. Functionally identical to SpMV; the price is the extra
// round-trip traffic, which the ledger records.
func (e *Engine) SpMVSliced(a *matrix.COO, x, yIn vector.Dense) (vector.Dense, int, error) {
	if uint64(len(x)) != a.Cols {
		return nil, 0, fmt.Errorf("core: x dimension %d != %d columns", len(x), a.Cols)
	}
	if yIn != nil && uint64(len(yIn)) != a.Rows {
		return nil, 0, fmt.Errorf("core: y dimension %d != %d rows", len(yIn), a.Rows)
	}
	// No MaxDimension bound here: slicing exists precisely to exceed it.

	width := e.cfg.SegmentWidth()
	stripes, err := matrix.Partition1D(a, width)
	if err != nil {
		return nil, 0, err
	}
	bank := e.nextBank()
	e.step1Compute(stripes, []vector.Dense{x}, nil, nil, bank)
	lists, err := e.commitStep1(stripes, bank, 0)
	if err != nil {
		return nil, 0, err
	}

	passes := 0
	ways := e.cfg.Merge.Ways
	for len(lists) > ways {
		passes++
		var next [][]types.Record
		for off := 0; off < len(lists); off += ways {
			end := off + ways
			if end > len(lists) {
				end = len(lists)
			}
			batch := lists[off:end]
			// Reading each batch list and writing the combined list are
			// extra DRAM round trips beyond the baseline two-step flow.
			for _, l := range batch {
				b, comp, uncomp := e.vecBytes(l)
				e.charge(mem.Traffic{IntermediateRead: b})
				e.stats.CompressedVecBytes += comp
				e.stats.UncompressedVecBytes += uncomp
			}
			combined := merge.MergeAccumulate(batch)
			b, comp, uncomp := e.vecBytes(combined)
			e.charge(mem.Traffic{IntermediateWrite: b})
			e.stats.CompressedVecBytes += comp
			e.stats.UncompressedVecBytes += uncomp
			next = append(next, combined)
		}
		lists = next
	}
	y, err := e.runStep2(lists, a.Rows, yIn)
	if err != nil {
		return nil, passes, err
	}
	e.snapshot("sliced")
	return y, passes, nil
}
