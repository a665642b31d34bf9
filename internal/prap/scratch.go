package prap

import (
	"sync"

	"mwmerge/internal/merge"
	"mwmerge/internal/types"
)

// mergeScratch is the network-owned arena recycled across Merge/MergeInto
// calls: route slots, per-list route outcomes and scatter cursors, and
// per-core merge workspaces and output buffers. Every sub-buffer is
// indexed by list or core id, so the parallel phases never share
// an element and reuse cannot perturb the deterministic schedule. One
// merge run owns the arena at a time: callers acquire it with TryLock and
// fall back to a fresh arena when another Merge is in flight, which keeps
// the public API safe for concurrent use at the cost of allocations only
// on the contended path.
type mergeScratch struct {
	mu       sync.Mutex
	slots    [][][]types.Record // [radix][list], sized by reserveSlots
	outcomes []routeOutcome     // per list, counters and cursors recycled
	cores    []coreScratch      // per merge core
}

// coreScratch is the per-merge-core slice of the arena: the recycled
// merge-accumulate output buffer, the Merge-Path workspace, and the
// store queue's read cursor into merged. Exactly one goroutine merges
// core r in any run, and the store queue drains the cores only after
// every merge has joined, so cores[r] needs no lock.
type coreScratch struct {
	merged []types.Record
	ws     merge.MergePathWorkspace
	next   int // merged records the store queue has drained
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

// outcomesFor returns the per-list route outcomes with zeroed counters
// and p-entry cursor arrays.
func (s *mergeScratch) outcomesFor(nl, p int) []routeOutcome {
	for len(s.outcomes) < nl {
		s.outcomes = append(s.outcomes, routeOutcome{})
	}
	out := s.outcomes[:nl]
	for i := range out {
		pc, cur := out[i].perCore, out[i].cursors
		if cap(pc) < p {
			pc = make([]uint64, p)
		}
		if cap(cur) < p {
			cur = make([][]types.Record, p)
		}
		pc = pc[:p]
		for j := range pc {
			pc[j] = 0
		}
		out[i] = routeOutcome{perCore: pc, cursors: cur[:p]}
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
