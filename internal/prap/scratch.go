package prap

import (
	"sync"

	"mwmerge/internal/merge"
	"mwmerge/internal/types"
)

// mergeScratch is the network-owned arena recycled across Merge/MergeInto
// calls: route slots, per-list route outcomes, per-core merge
// workspaces and output buffers, the store-queue
// counters, and the segmentPlan pending array. Every sub-buffer is
// indexed by list or core id, so the parallel phases never share
// an element and reuse cannot perturb the deterministic schedule. One
// merge run owns the arena at a time: callers acquire it with TryLock and
// fall back to a fresh arena when another Merge is in flight, which keeps
// the public API safe for concurrent use at the cost of allocations only
// on the contended path.
type mergeScratch struct {
	mu       sync.Mutex
	slots    [][][]types.Record // [radix][list], sized by reserveSlots
	outcomes []routeOutcome     // per list, perCore counters recycled
	cores    []coreScratch      // per merge core
	injected []uint64           // per core
	emitted  []uint64           // per core
	pending  []int32            // segmentPlan countdown arena
	plan     segmentPlan        // reused plan header
}

// coreScratch is the per-merge-core slice of the arena: the recycled
// merge-accumulate output buffer and the Merge-Path workspace. Exactly
// one goroutine drains core r in any run, so cores[r] needs no lock.
type coreScratch struct {
	merged []types.Record
	ws     merge.MergePathWorkspace
}

// acquire returns the network's arena when free, or a fresh one when a
// concurrent merge holds it. release must be called when the run is done.
func (n *Network) acquire() (scr *mergeScratch, release func()) {
	if n.scratch.mu.TryLock() {
		return &n.scratch, n.scratch.mu.Unlock
	}
	return &mergeScratch{}, func() {}
}

// slotsFor returns the p×nl [radix][list] slot matrix with every cell's
// capacity retained; routeList empties and sizes a list's cells through
// reserveSlots before it scatters into them.
func (s *mergeScratch) slotsFor(p, nl int) [][][]types.Record {
	for len(s.slots) < p {
		s.slots = append(s.slots, nil)
	}
	slots := s.slots[:p]
	for r := range slots {
		row := slots[r]
		for len(row) < nl {
			row = append(row, nil)
		}
		slots[r] = row[:nl]
	}
	s.slots = slots
	return slots
}

// outcomesFor returns the per-list route outcomes with zeroed counters.
func (s *mergeScratch) outcomesFor(nl, p int) []routeOutcome {
	for len(s.outcomes) < nl {
		s.outcomes = append(s.outcomes, routeOutcome{})
	}
	out := s.outcomes[:nl]
	for i := range out {
		pc := out[i].perCore
		if cap(pc) < p {
			pc = make([]uint64, p)
		}
		pc = pc[:p]
		for j := range pc {
			pc[j] = 0
		}
		out[i] = routeOutcome{perCore: pc}
	}
	s.outcomes = out
	return out
}

// coresFor returns the per-core workspaces.
func (s *mergeScratch) coresFor(p int) []coreScratch {
	for len(s.cores) < p {
		s.cores = append(s.cores, coreScratch{})
	}
	s.cores = s.cores[:p]
	return s.cores
}

// countersFor returns the zeroed per-core injected/emitted counters.
func (s *mergeScratch) countersFor(p int) (injected, emitted []uint64) {
	s.injected = zeroed(s.injected, p)
	s.emitted = zeroed(s.emitted, p)
	return s.injected, s.emitted
}

// planFor builds the segment-publishing plan in the arena: the pending
// countdown array and the plan header are both recycled.
func (s *mergeScratch) planFor(dim, width uint64, cores int, publish func(int)) *segmentPlan {
	segs := int((dim + width - 1) / width)
	if cap(s.pending) < segs {
		s.pending = make([]int32, segs)
	}
	pending := s.pending[:segs]
	for i := range pending {
		pending[i] = int32(cores)
	}
	s.pending = pending
	s.plan = segmentPlan{width: width, segs: segs, pending: pending, publish: publish}
	return &s.plan
}

// zeroed resizes s to n and clears it, reusing capacity.
func zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
