// Package merge implements the multi-way merge machinery at the heart of
// Two-Step SpMV step 2: the software K-way merge-accumulate kernel
// (Merge Path: diagonal-partitioned, branch-free pairwise merges) that
// every merge core of the host network runs, and a cycle-approximate
// model of the paper's binary-tree Merge Core with SRAM-block-packed
// pipeline FIFOs (Fig. 6).
package merge

import (
	"mwmerge/internal/types"
)

// Source yields records in ascending key order. Next returns the next
// record, or ok=false when exhausted.
type Source interface {
	Next() (rec types.Record, ok bool)
}

// SliceSource adapts a sorted record slice to a Source.
type SliceSource struct {
	recs []types.Record
	pos  int
}

// NewSliceSource wraps recs, which must already be sorted by key.
func NewSliceSource(recs []types.Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (types.Record, bool) {
	if s.pos >= len(s.recs) {
		return types.Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Remaining returns the number of unread records.
func (s *SliceSource) Remaining() int { return len(s.recs) - s.pos }
