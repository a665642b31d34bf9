// Package prap implements the paper's central contribution:
// Parallelization by Radix Pre-sorter (§4.2). Records streamed from DRAM
// pass through a stable bitonic pre-sorter on the q LSBs of their keys and
// land in per-radix slots of a shared prefetch buffer; p = 2^q independent
// Merge Cores each merge only the records of their residue class. In
// software the pre-sort and the scatter that follows collapse into one
// stable counting scatter, which fills the same slots. Because
// the final output is a *dense* vector, missing-key injection makes every
// MC emit exactly one record per key of its class, which hides load
// imbalance and lets a simple store queue interleave the p outputs into
// consecutive dense-vector elements with no extra sorting (§4.2.2).
//
// The decisive property: the prefetch buffer is K×dpage bytes regardless
// of p, whereas the partition-based alternative (§4.1, also implemented
// here for ablation) needs m×K×dpage and so cannot scale.
package prap

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"mwmerge/internal/mem"
	"mwmerge/internal/merge"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// invalidKey marks pre-sorter padding lanes on the final, partially filled
// batch of a list (hardware carries a valid bit per lane). Routing
// rejects genuine records carrying it, so the software network keeps the
// hardware's input contract.
const invalidKey = ^uint64(0)

// Config parameterizes a PRaP merge network.
type Config struct {
	// Q is the radix width; the network instantiates p = 2^Q merge cores.
	Q uint
	// Ways is K, the per-core input list capacity (power of two).
	Ways int
	// FIFODepth is the per-stage FIFO capacity of each merge core.
	FIFODepth int
	// DPage is the DRAM page size for prefetch-buffer accounting.
	DPage uint64
	// RecordBytes is the record width for buffer accounting.
	RecordBytes int
	// MergeWorkers bounds the goroutines Network.Merge runs: the radix
	// pre-sort shards over input lists and the p merge cores fan out
	// one task per residue class, both capped at this bound (the
	// host-side analogue of the MC-level independence of §4.2). The
	// drain is a single store queue on the calling goroutine, as in
	// hardware. 0 defaults to runtime.GOMAXPROCS; 1 runs fully
	// sequentially. Every output key is owned by exactly one core, so
	// the result is bit-identical at any setting — no float
	// reassociation occurs.
	MergeWorkers int
}

// DefaultConfig returns the ASIC step-2 network: 16 MCs (q=4) of 2048
// ways each.
func DefaultConfig() Config {
	return Config{Q: 4, Ways: 2048, FIFODepth: 4, DPage: 2 * types.KiB, RecordBytes: types.RecordBytes}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Q > 16 {
		return fmt.Errorf("prap: radix width %d too large", c.Q)
	}
	if c.Ways < 2 || c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("prap: ways %d not a power of two >= 2", c.Ways)
	}
	if c.FIFODepth < 1 {
		return fmt.Errorf("prap: FIFO depth must be positive")
	}
	if c.DPage == 0 {
		return fmt.Errorf("prap: dpage must be positive")
	}
	if c.MergeWorkers < 0 {
		return fmt.Errorf("prap: merge workers must be non-negative")
	}
	return nil
}

// Cores returns p = 2^Q.
func (c Config) Cores() int { return 1 << c.Q }

// workers resolves the effective goroutine bound for n independent work
// items: MergeWorkers (GOMAXPROCS when 0) capped at n.
func (c Config) workers(n int) int {
	w := c.MergeWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(worker, i) for every i in [0, n) across at most w
// goroutines — the module's one worker fan-out, shared by the PRaP
// presort/merge phases and the engine's step-1 driver. w <= 1 runs
// inline as worker 0 in ascending order. A non-nil order (a permutation
// of [0, n)) sets the parallel dispatch sequence, e.g. the engine's
// heaviest-first LPT schedule; nil dispatches ascending. Callers
// guarantee fn touches only i-indexed state, so neither the schedule
// nor the order can perturb results. The worker index exists solely for
// observability: span instrumentation groups tasks by the goroutine
// that executed them.
func ForEach(w, n int, order []int, fn func(worker, i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	//lint:allow allocfree per-call fan-out channel, counted in the DESIGN.md §9 alloc budget
	work := make(chan int)
	for g := 0; g < w; g++ {
		wg.Add(1)
		//lint:allow allocfree per-call worker goroutine closure, counted in the DESIGN.md §9 alloc budget
		go func(g int) {
			defer wg.Done()
			for i := range work {
				fn(g, i)
			}
		}(g)
	}
	for j := 0; j < n; j++ {
		if order != nil {
			work <- order[j]
		} else {
			work <- j
		}
	}
	close(work)
	wg.Wait()
}

// PrefetchBufferBytes returns the shared prefetch buffer size, K×dpage —
// independent of the core count (the PRaP scaling property).
func (c Config) PrefetchBufferBytes() uint64 {
	return uint64(c.Ways) * c.DPage
}

// Stats describes one PRaP merge run.
type Stats struct {
	PerCoreInput   []uint64 // records routed to each MC (load imbalance)
	PerCoreOutput  []uint64 // records emitted by each MC incl. injections
	Injected       uint64   // missing keys injected across all MCs
	Emitted        uint64   // dense elements streamed out by the store queue
	PresortBatches uint64   // p-record batches the hardware pre-sorter takes: Σ⌈len(list)/p⌉
}

// Clone returns a deep copy of s, per-core slices included, so callers
// can snapshot accumulating statistics without aliasing later updates.
func (s Stats) Clone() Stats {
	c := s
	c.PerCoreInput = append([]uint64(nil), s.PerCoreInput...)
	c.PerCoreOutput = append([]uint64(nil), s.PerCoreOutput...)
	return c
}

// Accumulate adds o into s, growing the per-core slices if needed, so
// engine-level statistics can aggregate merge runs across calls.
func (s *Stats) Accumulate(o Stats) {
	s.PerCoreInput = addCounts(s.PerCoreInput, o.PerCoreInput)
	s.PerCoreOutput = addCounts(s.PerCoreOutput, o.PerCoreOutput)
	s.Injected += o.Injected
	s.Emitted += o.Emitted
	s.PresortBatches += o.PresortBatches
}

func addCounts(dst, src []uint64) []uint64 {
	if len(dst) < len(src) {
		//lint:allow allocfree grow-once per-core counters; the steady state accumulates into already-sized slices
		grown := make([]uint64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// SpanObserver receives begin/end callbacks for the network's internal
// phases, letting an observability layer (internal/report) attribute
// wall-clock time to individual pre-sort lists, merge cores and the
// store-queue drain without this package depending on it. Begin opens a
// span on the given lane and returns the closure that ends it.
// Implementations must be safe for concurrent use: spans arrive from
// MergeWorkers goroutines at once.
type SpanObserver interface {
	Begin(lane, name string) (end func())
}

// Network is a PRaP step-2 merge network instance.
type Network struct {
	cfg     Config
	obs     SpanObserver
	scratch mergeScratch
	// drainForce overrides the drain selection rule of sparseDrainOK:
	// 0 applies the rule, >0 forces the sparse drain (still only when
	// bit-safe), <0 forces the dense walk. Only tests set it, to
	// cross-check the two drains bit-for-bit.
	drainForce int
}

// SetObserver attaches a span observer to the network's phases (nil
// detaches). Observation never changes results: spans wrap the per-list
// routing and per-core merge tasks, whose outputs stay bit-identical at
// any worker count, and the store-queue drain (lane "drain/q").
func (n *Network) SetObserver(o SpanObserver) { n.obs = o }

// instrumented wraps a per-index task so each execution emits a span on
// lane "<phase>/g<worker>" named "<task><i>"; with no observer the task
// runs bare. The worker-indexed lanes expose per-goroutine utilization,
// the host-side analogue of the paper's per-MC load balance (Fig. 11).
func (n *Network) instrumented(phase, task string, fn func(worker, i int)) func(worker, i int) {
	if n.obs == nil {
		return fn
	}
	//lint:allow allocfree observability wrapper; the nil-observer steady state returns fn unchanged
	return func(worker, i int) {
		end := n.obs.Begin(phase+"/g"+strconv.Itoa(worker), task+strconv.Itoa(i))
		fn(worker, i)
		end()
	}
}

// New builds a PRaP network.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// routeOutcome carries one list's routing deltas so parallel routing
// stays side-effect free and the stats merge is deterministic in list
// order. cursors is the list's private copy of its p slot headers,
// which pass 2 of routeList advances in place of the shared slots.
type routeOutcome struct {
	perCore []uint64
	cursors [][]types.Record
	err     error
}

// routeList deals one input list into its per-(radix, list) slots as a
// two-pass counting scatter. Pass 1 rejects a genuine record carrying
// the padding sentinel and counts the records of each radix into
// out.perCore; reserveSlots then sizes the list's slot in every radix;
// pass 2 writes the records in input order. A stable scatter leaves each
// slot in input order, exactly as the hardware's stable pre-sort by
// radix followed by the per-radix scatter does (DESIGN.md §12), so every
// slot stays key-sorted. Pass 2 advances the list's private cursor
// copies of its slot headers, and the headers go back to slots once per
// list, so the per-record loop writes no shared memory; each list owns
// column li of every slots[r], so concurrent routeList calls over
// distinct lists never share a slice element.
func (n *Network) routeList(li int, list []types.Record, slots [][][]types.Record, out *routeOutcome) {
	q := n.cfg.Q
	for i, rec := range list {
		if rec.Key == invalidKey {
			out.err = fmt.Errorf("prap: list %d record %d carries the reserved padding key %#x", li, i, invalidKey)
			return
		}
		out.perCore[rec.Radix(q)]++
	}
	reserveSlots(slots, li, out.perCore)
	cur := out.cursors
	for r := range cur {
		cur[r] = slots[r][li]
	}
	for _, rec := range list {
		s := &cur[rec.Radix(q)]
		*s = (*s)[:len(*s)+1] // within the reserved capacity
		(*s)[len(*s)-1] = rec
	}
	for r, s := range cur {
		slots[r][li] = s
	}
}

// reserveSlots is routeList's arena-growth step: it empties list li's
// slot in every radix r, growing it to exactly counts[r] records when
// its recycled capacity is smaller, so the scatter that follows never
// reallocates.
func reserveSlots(slots [][][]types.Record, li int, counts []uint64) {
	for r, c := range counts {
		if uint64(cap(slots[r][li])) < c {
			slots[r][li] = make([]types.Record, 0, c)
		} else {
			slots[r][li] = slots[r][li][:0]
		}
	}
}

// routeLists routes every input list into per-(list, radix) slots,
// exactly as the prefetch buffer of Fig. 10 is organized. Lists are
// sharded across MergeWorkers goroutines; per-list stats merge
// deterministically in list order afterwards. PresortBatches counts the
// p-record batches the hardware pre-sorter would take. Slots and
// outcomes live in the run's arena.
func (n *Network) routeLists(lists [][]types.Record, st *Stats, scr *mergeScratch) ([][][]types.Record, error) {
	p := n.cfg.Cores()
	slots := scr.slotsFor(p, len(lists)) // slots[radix][list]
	outcomes := scr.outcomesFor(len(lists), p)
	//lint:allow allocfree per-merge routing closure, counted in the DESIGN.md §9 alloc budget
	ForEach(n.cfg.workers(len(lists)), len(lists), nil, n.instrumented("presort", "l", func(_, li int) {
		n.routeList(li, lists[li], slots, &outcomes[li])
	}))
	for li, out := range outcomes {
		if out.err != nil {
			return nil, out.err
		}
		st.PresortBatches += (uint64(len(lists[li])) + uint64(p) - 1) / uint64(p)
		for r, c := range out.perCore {
			st.PerCoreInput[r] += c
		}
	}
	return slots, nil
}

// Merge merges the sorted input lists into a dense vector of the given
// dimension, adding yIn when non-nil (the +y of y = Ax + y). Input lists
// must each be sorted by strictly-or-equal ascending key; duplicate keys
// across or within lists are accumulated. The number of lists must not
// exceed cfg.Ways. With MergeWorkers != 1 the pre-sort and the merge
// cores run concurrently; the output is bit-identical to the sequential
// path at any worker count.
func (n *Network) Merge(lists [][]types.Record, dim uint64, yIn vector.Dense) (vector.Dense, Stats, error) {
	st := n.newStats()
	if err := n.validateMerge(lists, dim, yIn); err != nil {
		return nil, st, err
	}
	out := vector.NewDense(int(dim))
	scr, release := n.acquire()
	defer release()
	if err := n.mergeInto(lists, dim, yIn, out, &st, 0, nil, scr); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// MergeInto merges exactly as Merge but into the caller-provided dense
// vector out (overwritten; its length must equal dim) and optionally
// streams segment completions: with a non-nil publish and a positive
// segWidth, the store queue drains out one segWidth-wide key segment at
// a time, in ascending order, and invokes publish(s) on the calling
// goroutine exactly once per segment, right after segment s is drained.
// A published segment's elements are final — all writes to
// out[s*segWidth : (s+1)*segWidth] happen before publish(s) is entered.
// This is the hook the ITS pipeline (core) uses to hand finished
// x-segments of iteration i+1's source vector to its step 1 while this
// step 2 is still draining higher keys. publish may block (a bounded
// handoff); blocking only stalls the drain, never reorders it, so
// results stay bit-identical at any MergeWorkers setting.
func (n *Network) MergeInto(lists [][]types.Record, dim uint64, yIn, out vector.Dense, segWidth uint64, publish func(seg int)) (Stats, error) {
	st := n.newStats()
	if err := n.validateMerge(lists, dim, yIn); err != nil {
		return st, err
	}
	if uint64(len(out)) != dim {
		return st, fmt.Errorf("prap: out dimension %d != %d", len(out), dim)
	}
	if publish != nil && segWidth == 0 {
		return st, fmt.Errorf("prap: segment publishing needs a positive segment width")
	}
	scr, release := n.acquire()
	defer release()
	return st, n.mergeInto(lists, dim, yIn, out, &st, segWidth, publish, scr)
}

// newStats returns a Stats with per-core slices sized for this network.
func (n *Network) newStats() Stats {
	p := n.cfg.Cores()
	//lint:allow allocfree the returned Stats escapes to the caller by contract; two counted allocations in the DESIGN.md §9 budget
	return Stats{PerCoreInput: make([]uint64, p), PerCoreOutput: make([]uint64, p)}
}

// validateMerge checks the shared merge preconditions.
func (n *Network) validateMerge(lists [][]types.Record, dim uint64, yIn vector.Dense) error {
	if len(lists) > n.cfg.Ways {
		return fmt.Errorf("prap: %d lists exceed %d ways", len(lists), n.cfg.Ways)
	}
	if yIn != nil && uint64(len(yIn)) != dim {
		return fmt.Errorf("prap: yIn dimension %d != %d", len(yIn), dim)
	}
	if dim == invalidKey {
		return fmt.Errorf("prap: dimension too large")
	}
	return nil
}

// drainBlock is the store queue's block width, in keys, when no segment
// stream is requested: the drain interleaves the p residue classes one
// 2^15-key block (256 KiB of float64 output) at a time, so the block's
// cache lines stay resident while all p cores' strided writes land in
// it. With publish set the blocks are the ITS segments instead.
const drainBlock = 1 << 15

// mergeInto routes the lists, runs the p merge cores in parallel, and
// drains them into out through one ordered store queue on the calling
// goroutine.
//
// Each MC merge-accumulates its residue class on its own goroutine and
// writes only its arena buffer. The store queue then walks the output
// block by block in ascending key order and, inside each block, visits
// every core's residue class — the host form of §4.2.2's store queue,
// which takes one record from each of the p cores and writes them as
// consecutive dense elements (Fig. 11). The dense walk visits the full
// key sequence {r, r+p, r+2p, ...} — the missing-key injection of
// Fig. 11 fused with the drain, so injected records add 0.0 to out[key]
// without ever being materialized (the add still executes: skipping it
// would turn a -0.0 element into +0.0 and break bit-identity with the
// reference). When skipping those zero-adds is provably bit-safe, the
// sparse drain instead touches only the merged records, making the
// drain cost proportional to the output nonzeros (DESIGN.md §13);
// sparseDrainOK decides per call. Either way each element receives
// exactly one effective float64 add, and only the calling goroutine
// writes out, so the result is bit-identical at any MergeWorkers
// setting. With publish
// set, publish(s) runs once per segWidth-wide block right after the
// block is drained, so segments publish strictly ascending and final.
func (n *Network) mergeInto(lists [][]types.Record, dim uint64, yIn, out vector.Dense, st *Stats, segWidth uint64, publish func(seg int), scr *mergeScratch) error {
	p := n.cfg.Cores()
	slots, err := n.routeLists(lists, st, scr)
	if err != nil {
		return err
	}
	sparse := n.sparseDrainOK(dim, yIn, st)
	if yIn != nil {
		copy(out, yIn)
	} else {
		out.Fill(0)
	}
	cores := scr.coresFor(p)
	//lint:allow allocfree per-merge core closure, counted in the DESIGN.md §9 alloc budget
	ForEach(n.cfg.workers(p), p, nil, n.instrumented("merge", "mc", func(_, r int) {
		cs := &cores[r]
		cs.merged = cs.ws.MergeAccumulateInto(cs.merged, slots[r])
		cs.next = 0
	}))

	if n.obs != nil {
		end := n.obs.Begin("drain/q", "q")
		defer end()
	}
	width := uint64(drainBlock)
	if publish != nil {
		width = segWidth
	}
	mask := uint64(p - 1)
	for lo, seg := uint64(0), 0; lo < dim; lo, seg = lo+width, seg+1 {
		hi := dim
		if dim-lo > width {
			hi = lo + width
		}
		for r := range cores {
			cs := &cores[r]
			if sparse {
				cs.next = sparseDrain(out, cs.merged, cs.next, hi)
			} else {
				// From the first key of residue class r at or above lo.
				cs.next = denseWalk(out, cs.merged, cs.next, lo+(uint64(r)-lo)&mask, hi, uint64(p))
			}
		}
		if publish != nil {
			publish(seg)
		}
	}

	// Every merged record below dim was matched exactly once, so core
	// r's final cursor is its matched count; each of its nKeys keys was
	// emitted, and the rest were injected.
	for r := range cores {
		nKeys := uint64(0)
		if dim > uint64(r) {
			nKeys = (dim - uint64(r) + uint64(p) - 1) / uint64(p)
		}
		st.PerCoreOutput[r] = nKeys
		st.Injected += nKeys - uint64(cores[r].next)
		st.Emitted += nKeys
	}
	return nil
}

// denseWalk drains one core's residue class over the keys key, key+p,
// ... below hi, starting at merged[i]: a merged record adds its value, a
// missing key adds the injected 0.0. It returns the cursor past the
// last matched record.
func denseWalk(out vector.Dense, merged []types.Record, i int, key, hi, p uint64) int {
	for ; key < hi; key += p {
		var val float64
		if i < len(merged) && merged[i].Key == key {
			val = merged[i].Val
			i++
		}
		out[key] += val
	}
	return i
}

// sparseDrain drains one core's merged records from merged[i] up to key
// hi and returns the cursor past the last one.
func sparseDrain(out vector.Dense, merged []types.Record, i int, hi uint64) int {
	for ; i < len(merged) && merged[i].Key < hi; i++ {
		out[merged[i].Key] += merged[i].Val
	}
	return i
}

// sparseDrainOK decides, per merge call, whether the store queue may
// drain only the merged records instead of walking every key of each
// residue class. Two conditions gate it (DESIGN.md §13):
//
//   - Bit-safety: skipping a missing key skips its injected `+= 0.0`,
//     which is only invisible when the element it would have landed on
//     is unchanged by adding +0.0. negZeroSafe proves that for the
//     whole yIn in one read pass (yIn == nil is trivially safe: the
//     drain starts from +0.0). A dirty yIn forces the dense walk.
//   - Profitability: the routed record count must be at most half the
//     output dimension, so the records the sparse drain visits are
//     guaranteed fewer than the keys the dense walk would.
//
// The decision consumes only the already-collected routing stats, so it
// costs one scan of yIn at most and never perturbs results, ledgers, or
// merge statistics.
func (n *Network) sparseDrainOK(dim uint64, yIn vector.Dense, st *Stats) bool {
	if n.drainForce < 0 {
		return false
	}
	if n.drainForce == 0 {
		var routed uint64
		for _, c := range st.PerCoreInput {
			routed += c
		}
		if 2*routed > dim {
			return false
		}
	}
	return negZeroSafe(yIn)
}

// negZeroSafe reports whether every element of y is bitwise unchanged
// by adding +0.0 — exactly the property the sparse drain needs, since
// it skips the injected zero-add the dense walk would execute on y's
// copy. -0.0 fails (-0.0 + 0.0 = +0.0 flips the sign bit); signaling
// NaN payloads that quiet under arithmetic fail likewise. A nil y is
// safe: the output starts from +0.0, and +0.0 + 0.0 is bitwise +0.0.
func negZeroSafe(y vector.Dense) bool {
	for _, v := range y {
		if math.Float64bits(v+0) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// InjectMissingKeys densifies an ascending record stream over the residue
// class {radix, radix+p, radix+2p, ...} below dim, inserting zero-valued
// records for absent keys (paper Fig. 11). It returns the dense stream and
// the injection count.
func InjectMissingKeys(in []types.Record, radix, p, dim uint64) ([]types.Record, uint64) {
	if p == 0 || radix >= p {
		return nil, 0
	}
	count := uint64(0)
	if dim > radix {
		count = (dim - radix + p - 1) / p
	}
	out := make([]types.Record, 0, count)
	var injected uint64
	i := 0
	for key := radix; key < dim; key += p {
		if i < len(in) && in[i].Key == key {
			out = append(out, in[i])
			i++
			continue
		}
		out = append(out, types.Record{Key: key, Val: 0})
		injected++
	}
	return out, injected
}

// LoadImbalance returns max/mean per-core input records, the imbalance
// that missing-key injection hides at the output.
func (s Stats) LoadImbalance() float64 {
	if len(s.PerCoreInput) == 0 {
		return 0
	}
	var sum, max uint64
	for _, v := range s.PerCoreInput {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.PerCoreInput))
	return float64(max) / mean
}

// PartitionedMerge implements the §4.1 alternative: the key space is cut
// into m contiguous partitions, each merged by an independent MC. It
// produces the same dense result but requires a prefetch buffer of
// m×K×dpage bytes, reported alongside.
func PartitionedMerge(lists [][]types.Record, dim uint64, yIn vector.Dense, m int, hbm mem.HBMConfig, ways int) (vector.Dense, uint64, error) {
	if m < 1 {
		return nil, 0, fmt.Errorf("prap: partition count must be positive")
	}
	if yIn != nil && uint64(len(yIn)) != dim {
		return nil, 0, fmt.Errorf("prap: yIn dimension %d != %d", len(yIn), dim)
	}
	out := vector.NewDense(int(dim))
	if yIn != nil {
		copy(out, yIn)
	}
	partWidth := (dim + uint64(m) - 1) / uint64(m)
	for part := 0; part < m; part++ {
		lo := uint64(part) * partWidth
		hi := lo + partWidth
		if hi > dim {
			hi = dim
		}
		sub := make([][]types.Record, len(lists))
		for i, l := range lists {
			s, e := searchKey(l, lo), searchKey(l, hi)
			sub[i] = l[s:e]
		}
		for _, rec := range merge.MergeAccumulate(sub) {
			out[rec.Key] += rec.Val
		}
	}
	bufBytes := hbm.PartitionedPrefetchBytes(m, ways)
	return out, bufBytes, nil
}

// searchKey returns the index of the first record with key >= k.
func searchKey(l []types.Record, k uint64) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := (lo + hi) / 2
		if l[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
