package merge

import (
	"container/heap"

	"mwmerge/internal/types"
)

// This file holds the test oracles the production Merge-Path kernel is
// checked against: the tournament loser tree (LoserTreeMerged, reused
// through Workspace), the binary-heap merger (Merged), and the streaming
// Accumulator that sums equal-key neighbours of either stream. Both
// mergers break key ties by source index, so they visit records in the
// same (key, source index, position) order as the kernel, and every
// FuzzMergeKernels comparison is bitwise.

// LoserTreeMerged is a true tournament loser tree over K sources: an
// array-embedded binary tree whose internal nodes store the loser of each
// match and whose root path replay costs exactly ceil(log2 K) comparisons
// per output — the software analogue of the hardware merge tree, and the
// classic external-sorting structure. (Merged, by contrast, is a binary
// heap kept as an independent reference implementation.)
type LoserTreeMerged struct {
	k      int
	losers []int          // internal nodes: source index of the match loser
	heads  []types.Record // current head record per source
	done   []bool         // source exhausted
	src    []Source
	winner int
	primed bool
}

// NewLoserTree builds a loser tree over the sources (nil sources count as
// exhausted).
func NewLoserTree(sources []Source) *LoserTreeMerged {
	t := &LoserTreeMerged{}
	t.Reset(sources)
	return t
}

// Reset rebuilds the tree over a new source set, reusing the internal
// arrays whenever their capacity allows, so steady-state callers replay
// tournaments without reallocating. A zero LoserTreeMerged is valid input.
func (t *LoserTreeMerged) Reset(sources []Source) {
	k := len(sources)
	if k == 0 {
		k = 1
	}
	t.k = k
	t.losers = grown(t.losers, k)
	t.heads = grown(t.heads, k)
	t.done = grown(t.done, k)
	t.src = grown(t.src, k)
	for i := range t.src {
		t.src[i] = nil
		t.done[i] = false
		t.heads[i] = types.Record{}
	}
	copy(t.src, sources)
	for i := range t.src {
		if t.src[i] == nil {
			t.done[i] = true
			continue
		}
		if rec, ok := t.src[i].Next(); ok {
			t.heads[i] = rec
		} else {
			t.done[i] = true
		}
	}
	t.build()
}

// less orders live sources by (key, index) — index tiebreak keeps the
// merge stable with respect to source order.
func (t *LoserTreeMerged) less(a, b int) bool {
	if t.done[a] != t.done[b] {
		return !t.done[a] // exhausted sources always lose
	}
	if t.done[a] {
		return a < b
	}
	if t.heads[a].Key != t.heads[b].Key {
		return t.heads[a].Key < t.heads[b].Key
	}
	return a < b
}

// build runs the initial tournament.
func (t *LoserTreeMerged) build() {
	for i := range t.losers {
		t.losers[i] = -1
	}
	for s := 0; s < t.k; s++ {
		t.replay(s)
	}
	t.primed = true
}

// replay pushes source s up from its leaf, recording losers, until it
// loses or reaches the root.
func (t *LoserTreeMerged) replay(s int) {
	winner := s
	node := (s + t.k) / 2
	for node > 0 {
		if t.losers[node] == -1 {
			// Empty slot: park here and stop.
			t.losers[node] = winner
			return
		}
		if t.less(t.losers[node], winner) {
			winner, t.losers[node] = t.losers[node], winner
		}
		node /= 2
	}
	t.winner = winner
}

// Next implements Source: emit the overall winner, advance its source,
// and replay its path.
func (t *LoserTreeMerged) Next() (types.Record, bool) {
	if !t.primed || t.done[t.winner] {
		return types.Record{}, false
	}
	w := t.winner
	out := t.heads[w]
	if rec, ok := t.src[w].Next(); ok {
		t.heads[w] = rec
	} else {
		t.done[w] = true
	}
	// Replay from the winner's leaf to the root.
	winner := w
	node := (w + t.k) / 2
	for node > 0 {
		if t.losers[node] != -1 && t.less(t.losers[node], winner) {
			winner, t.losers[node] = t.losers[node], winner
		}
		node /= 2
	}
	t.winner = winner
	return out, true
}

// ltItem is one heap entry of Merged: a source's head record, its source
// index for tie-breaking, and the source itself.
type ltItem struct {
	rec types.Record
	src int
	in  Source
}

type ltHeap []ltItem

func (h ltHeap) Len() int { return len(h) }
func (h ltHeap) Less(i, j int) bool {
	if h[i].rec.Key != h[j].rec.Key {
		return h[i].rec.Key < h[j].rec.Key
	}
	return h[i].src < h[j].src
}
func (h ltHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ltHeap) Push(x interface{}) { *h = append(*h, x.(ltItem)) }
func (h *ltHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Merged streams the merged output of sources through a binary heap —
// an implementation independent of the loser tree.
type Merged struct {
	h ltHeap
}

// NewMerged builds a merger over the given sources.
func NewMerged(sources []Source) *Merged {
	m := &Merged{h: make(ltHeap, 0, len(sources))}
	for i, s := range sources {
		if rec, ok := s.Next(); ok {
			m.h = append(m.h, ltItem{rec: rec, src: i, in: s})
		}
	}
	heap.Init(&m.h)
	return m
}

// Next implements Source, yielding the globally smallest remaining record.
func (m *Merged) Next() (types.Record, bool) {
	if len(m.h) == 0 {
		return types.Record{}, false
	}
	top := m.h[0]
	if rec, ok := top.in.Next(); ok {
		m.h[0] = ltItem{rec: rec, src: top.src, in: top.in}
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return top.rec, true
}

// Accumulator wraps an ascending stream and sums consecutive records with
// equal keys, yielding one record per distinct key — the reduction the
// merge network performs while accumulating intermediate vectors into y.
type Accumulator struct {
	in      Source
	pending types.Record
	have    bool
}

// NewAccumulator wraps in.
func NewAccumulator(in Source) *Accumulator { return &Accumulator{in: in} }

// Next implements Source.
func (a *Accumulator) Next() (types.Record, bool) {
	if !a.have {
		r, ok := a.in.Next()
		if !ok {
			return types.Record{}, false
		}
		a.pending, a.have = r, true
	}
	cur := a.pending
	for {
		r, ok := a.in.Next()
		if !ok {
			a.have = false
			return cur, true
		}
		if r.Key == cur.Key {
			cur.Val += r.Val
			continue
		}
		a.pending = r
		return cur, true
	}
}

// Workspace runs the loser-tree oracle over sorted record lists with
// recycled source adapters and tree arrays, mirroring the reuse pattern
// of MergePathWorkspace. The zero value is ready to use.
type Workspace struct {
	srcs   []SliceSource
	ifaces []Source
	tree   LoserTreeMerged
}

// MergeAccumulateInto merges sorted record lists through the loser tree
// and sums duplicate keys with the streaming Accumulator, appending into
// dst (truncated first). dst must not alias any list.
func (ws *Workspace) MergeAccumulateInto(dst []types.Record, lists [][]types.Record) []types.Record {
	ws.srcs = grown(ws.srcs, len(lists))
	ws.ifaces = grown(ws.ifaces, len(lists))
	total := 0
	for i, l := range lists {
		ws.srcs[i] = SliceSource{recs: l}
		ws.ifaces[i] = &ws.srcs[i]
		total += len(l)
	}
	ws.tree.Reset(ws.ifaces)
	acc := Accumulator{in: &ws.tree}
	if dst == nil || cap(dst) < total {
		dst = make([]types.Record, 0, total)
	} else {
		dst = dst[:0]
	}
	for {
		r, ok := acc.Next()
		if !ok {
			return dst
		}
		dst = append(dst, r)
	}
}
