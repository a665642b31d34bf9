package core

import (
	"fmt"
	"strconv"

	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// Engine executes Two-Step SpMV while keeping the off-chip traffic ledger.
type Engine struct {
	cfg     Config
	network *prap.Network
	traffic mem.Traffic
	stats   RunStats

	// Observability state, live only when rec is non-nil. lastSnap is
	// the cumulative counter state at the previous iteration boundary
	// (snapshots record deltas); iterating suppresses the per-SpMV
	// snapshot inside Iterate/PageRank, which record per-iteration
	// boundaries themselves.
	rec       *report.Recorder
	lastSnap  report.Counters
	iterating bool

	// Steady-state memory reuse (scratch.go): the cached matrix plan,
	// the two rotating step-1 banks, the dense free list, and the
	// recycled pipeline handoff primitives (gate, handoff channel, and
	// the one-column step-1 source set). All are confined to the
	// goroutine driving the engine's public methods. denseFreeCap widens
	// the free-list bound once a block entry point has run, so k-wide
	// ping-pong buffers keep recycling (see denseFreeBound).
	plan         *enginePlan
	banks        [2]stripeBank
	bankIdx      int
	denseFree    []vector.Dense
	denseFreeCap int
	gate         *segmentGate
	nextCh       chan step1Result
	pipeSrc      [1]vector.Dense
	frontier     frontierScratch
	lpt          lptScratch
}

// RunStats aggregates execution statistics across calls: every field
// accumulates monotonically from engine construction (or the last
// ResetCounters) over all SpMV/Iterate/PageRank/SpMSpV invocations.
type RunStats struct {
	Stripes              int
	Products             uint64
	IntermediateRecords  uint64
	MergeStats           prap.Stats
	HDN                  hdn.RouteStats
	HDNFilterBytes       uint64
	CompressedVecBytes   uint64 // intermediate meta+val bytes after VLDI
	UncompressedVecBytes uint64
	CompressedMatBytes   uint64 // matrix meta bytes after VLDI (values excluded)
	UncompressedMatBytes uint64
	// TransitionBytesSaved is the inter-iteration y round-trip traffic
	// that ITS overlap eliminated (Iterate and PageRank).
	TransitionBytesSaved uint64
	// Step-1 load-skew counters (DESIGN.md §13): one step-1 run charges
	// its stripe count into Stripes, its total nonzeros into StripeNNZ,
	// and its heaviest stripe's nonzeros into StripeNNZMax, with
	// Step1Runs counting the runs. All three are monotone sums, so they
	// aggregate across engines (Add) and difference per iteration like
	// every other counter; StripeImbalance derives the max/mean ratio.
	Step1Runs    uint64
	StripeNNZ    uint64
	StripeNNZMax uint64
}

// StripeImbalance returns the average ratio between a step-1 run's
// heaviest stripe and the mean stripe weight (max/mean, ≥ 1 when any
// nonzeros were processed) — the straggler exposure the LPT dispatch
// mitigates. Zero when no stripes have been processed.
func (s RunStats) StripeImbalance() float64 {
	if s.Step1Runs == 0 || s.Stripes == 0 || s.StripeNNZ == 0 {
		return 0
	}
	meanMax := float64(s.StripeNNZMax) / float64(s.Step1Runs)
	meanStripe := float64(s.StripeNNZ) / float64(s.Stripes)
	return meanMax / meanStripe
}

// InjectedRatio returns the fraction of store-queue output elements that
// were injected missing keys rather than merged records — the measure
// of how drain-bound (output-sparse) the resident workload is. Zero
// when nothing has been emitted.
func (s RunStats) InjectedRatio() float64 {
	if s.MergeStats.Emitted == 0 {
		return 0
	}
	return float64(s.MergeStats.Injected) / float64(s.MergeStats.Emitted)
}

// New builds an engine from cfg.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, err := prap.New(cfg.Merge)
	if err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		n.SetObserver(cfg.Recorder)
	}
	return &Engine{cfg: cfg, network: n, rec: cfg.Recorder}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Traffic returns the accumulated off-chip traffic ledger.
func (e *Engine) Traffic() mem.Traffic { return e.traffic }

// charge books delta into the persistent off-chip traffic ledger. All
// engine code must funnel ledger arithmetic through here or through
// accountTransition — spmvlint's ledgerdiscipline analyzer enforces
// it, so every byte the evaluation reports is charged at an auditable
// call site.
func (e *Engine) charge(delta mem.Traffic) { e.traffic = e.traffic.Add(delta) }

// Stats returns a snapshot of the accumulated execution statistics; the
// per-core merge slices are copied so later calls cannot mutate it.
func (e *Engine) Stats() RunStats {
	st := e.stats
	st.MergeStats = e.stats.MergeStats.Clone()
	return st
}

// ResetCounters clears the traffic ledger and statistics.
func (e *Engine) ResetCounters() {
	e.traffic = mem.Traffic{}
	e.stats = RunStats{}
	e.lastSnap = report.Counters{}
}

// Counters assembles the observability counter snapshot for a ledger and
// statistics pair — the mapping between the engine's accounting state and
// the report/Prometheus metrics surface (DESIGN.md §8). The serving
// layer uses it to render aggregated pool ledgers through the same
// exposition the per-run reports use.
func (s RunStats) Counters(tr mem.Traffic) report.Counters {
	return report.Counters{
		Traffic:              tr,
		TransitionBytesSaved: s.TransitionBytesSaved,
		Products:             s.Products,
		IntermediateRecords:  s.IntermediateRecords,
		HDNRecords:           s.HDN.HDNRecords,
		HDNFalseRouted:       s.HDN.FalseRouted,
		VecCompressedBytes:   s.CompressedVecBytes,
		VecUncompressedBytes: s.UncompressedVecBytes,
		MatCompressedBytes:   s.CompressedMatBytes,
		MatUncompressedBytes: s.UncompressedMatBytes,
		MergeInjected:        s.MergeStats.Injected,
		MergeEmitted:         s.MergeStats.Emitted,
		Step1Runs:            s.Step1Runs,
		StripeNNZ:            s.StripeNNZ,
		StripeNNZMax:         s.StripeNNZMax,
	}
}

// Add returns the component-wise sum of two statistics snapshots without
// aliasing either operand's per-core merge slices. It is the documented
// way to aggregate RunStats across engines — the serving layer's pool
// ledger sums each member's Stats() through it.
func (s RunStats) Add(o RunStats) RunStats {
	sum := s
	sum.MergeStats = s.MergeStats.Clone()
	sum.MergeStats.Accumulate(o.MergeStats)
	sum.Stripes += o.Stripes
	sum.Products += o.Products
	sum.IntermediateRecords += o.IntermediateRecords
	sum.HDN.HDNRecords += o.HDN.HDNRecords
	sum.HDN.GeneralRecords += o.HDN.GeneralRecords
	sum.HDN.FalseRouted += o.HDN.FalseRouted
	sum.HDNFilterBytes += o.HDNFilterBytes
	sum.CompressedVecBytes += o.CompressedVecBytes
	sum.UncompressedVecBytes += o.UncompressedVecBytes
	sum.CompressedMatBytes += o.CompressedMatBytes
	sum.UncompressedMatBytes += o.UncompressedMatBytes
	sum.TransitionBytesSaved += o.TransitionBytesSaved
	sum.Step1Runs += o.Step1Runs
	sum.StripeNNZ += o.StripeNNZ
	sum.StripeNNZMax += o.StripeNNZMax
	return sum
}

// Counters assembles the engine's cumulative observability counter state
// from the ledger and statistics. Read-only on both; like every engine
// method it must be called from the goroutine driving the engine.
func (e *Engine) Counters() report.Counters { return e.stats.Counters(e.traffic) }

// counters is the internal spelling used by the snapshot machinery.
func (e *Engine) counters() report.Counters { return e.Counters() }

// snapshot books the counter delta since the previous snapshot into the
// recorder as one iteration boundary. Because every entry point
// snapshots when it finishes, the sum of a report's per-iteration
// deltas equals the engine's cumulative ledger exactly.
func (e *Engine) snapshot(label string) {
	if e.rec == nil {
		return
	}
	cum := e.counters()
	e.rec.RecordIteration(label, cum.Sub(e.lastSnap))
	e.lastSnap = cum
}

// SpMV computes y = A·x + yIn with the Two-Step algorithm. yIn may be nil
// for y = A·x. The matrix dimension must not exceed cfg.MaxDimension().
func (e *Engine) SpMV(a *matrix.COO, x, yIn vector.Dense) (vector.Dense, error) {
	if err := e.checkSpMV(a, x, yIn); err != nil {
		return nil, err
	}
	// SpMV is the k=1 block run (DESIGN.md §11): one driver, one
	// accounting path.
	y := vector.NewDense(int(a.Rows))
	if err := e.spmvBlockCompute(a, []vector.Dense{x}, []vector.Dense{yIn}, []vector.Dense{y}, nil); err != nil {
		return nil, err
	}
	if !e.iterating {
		e.snapshot("spmv")
	}
	return y, nil
}

// checkSpMV validates the SpMV preconditions shared by the one-shot and
// iterative entry points.
func (e *Engine) checkSpMV(a *matrix.COO, x, yIn vector.Dense) error {
	return e.checkOperands(a, uint64(len(x)), yIn)
}

// checkOperands validates the operand dimensions against the matrix and
// the matrix against the engine capacity. SpMV and SpMSpV both funnel
// through here (SpMSpV with its sparse x's logical dimension), so the
// dense and frontier paths reject bad inputs with identical errors.
func (e *Engine) checkOperands(a *matrix.COO, xDim uint64, yIn vector.Dense) error {
	return e.cfg.CheckOperands(a, xDim, yIn)
}

// CheckOperands is the operand-dimension check every SpMV entry point
// applies, exposed on Config (like CheckIterativeCapacity) so the
// serving layer's batcher can pre-validate a request before it joins a
// coalesced batch: a bad-dimension request is rejected alone, with
// exactly the engine's error, instead of poisoning the shared SpMVBlock
// call.
func (c Config) CheckOperands(a *matrix.COO, xDim uint64, yIn vector.Dense) error {
	if xDim != a.Cols {
		return fmt.Errorf("core: x dimension %d != %d columns", xDim, a.Cols)
	}
	if yIn != nil && uint64(len(yIn)) != a.Rows {
		return fmt.Errorf("core: y dimension %d != %d rows", len(yIn), a.Rows)
	}
	if a.Rows > c.MaxDimension() {
		return fmt.Errorf("core: dimension %d exceeds engine capacity %d (ways %d x segment %d)",
			a.Rows, c.MaxDimension(), c.Merge.Ways, c.SegmentWidth())
	}
	return nil
}

// stripeOutcome carries one stripe's records plus its accounting deltas,
// so parallel workers stay side-effect free and the ledger merge is
// deterministic in stripe order.
type stripeOutcome struct {
	recs               []types.Record
	st                 Step1Stats
	traffic            mem.Traffic
	compVec, uncompVec uint64
	compMat, uncompMat uint64
	err                error
}

// buildDetector constructs the HDN Bloom filter when one is configured
// (nil otherwise). The build is deterministic in (a, cfg), so iterative
// runs build once and reuse the detector across iterations.
func (e *Engine) buildDetector(a *matrix.COO) (*hdn.Detector, error) {
	if e.cfg.HDN == nil {
		return nil, nil
	}
	return hdn.Build(a, *e.cfg.HDN)
}

// chargeDetector books one filter construction: the filter footprint
// statistic plus the one-pass meta-data stream that populates it
// (§5.3). Iterative runs call it once per iteration so the ledger
// matches an equivalent sequence of standalone SpMV calls exactly.
func (e *Engine) chargeDetector(a *matrix.COO, det *hdn.Detector) {
	if det == nil {
		return
	}
	e.stats.HDNFilterBytes += det.SizeBytes()
	e.charge(mem.Traffic{MatrixBytes: uint64(a.NNZ()) * uint64(e.cfg.MetaBytes)})
}

// planStripes partitions A into engine-width column stripes and checks
// the merge-way bound.
func (e *Engine) planStripes(a *matrix.COO) ([]*matrix.Stripe, error) {
	stripes, err := matrix.Partition1D(a, e.cfg.SegmentWidth())
	if err != nil {
		return nil, err
	}
	if len(stripes) > e.cfg.Merge.Ways {
		return nil, fmt.Errorf("core: %d stripes exceed %d merge ways", len(stripes), e.cfg.Merge.Ways)
	}
	return stripes, nil
}

// step1Compute executes step 1 — the per-stripe partial SpMV — for the
// k source vectors xs across Workers goroutines, without touching
// persistent engine state (recorder spans aside), which is what lets the
// ITS pipeline run it concurrently with the previous iteration's step 2.
// It is the engine's only dense step-1 driver: SpMV, Iterate and
// PageRank are its k=1 runs, the block entry points its k-column runs.
// A worker holding stripe s runs it against all k source segments
// before moving on — the stripe stays resident while every column
// consumes it, which is why only column 0 charges the matrix stream
// (DESIGN.md §11). Outcomes land in the bank column-major, slot c·n+s,
// so stripe s of column c touches only its own recycled scratch slot
// and parallel runs stay race-free and deterministic. With a non-nil
// gate (the ITS pipeline, always k=1), stripe s first waits until
// segment s of x has been published and releases its handoff slot when
// done — successful or not, so a failed stripe can never starve the
// producer.
func (e *Engine) step1Compute(stripes []*matrix.Stripe, xs []vector.Dense, det *hdn.Detector, gate *segmentGate, bank *stripeBank) {
	n := len(stripes)
	bank.sized(n * len(xs))
	outcomes := bank.outcomes
	//lint:allow allocfree per-run worker closure, counted in the DESIGN.md §9 alloc budget
	run := func(w, s int) {
		if gate != nil {
			if err := gate.wait(s); err != nil {
				for c := range xs {
					outcomes[c*n+s] = stripeOutcome{err: err}
				}
				gate.consume()
				return
			}
			defer gate.consume()
		}
		for c, x := range xs {
			outcomes[c*n+s] = e.stripeTask(w, s, stripes[s], x, det, &bank.stripes[c*n+s], c == 0)
		}
	}

	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	// Ascending dispatch order is load-bearing under a gate: it
	// guarantees that whenever the producer is blocked on the handoff
	// bound, the lowest published-but-unconsumed stripe is already held
	// by some worker, so the pipeline always advances. Without a gate
	// every stripe is ready immediately, so ungated runs dispatch
	// heaviest-first (LPT) and cut the straggler tail on skewed
	// partitions; e.lpt is safe here because an ungated run always
	// executes on the goroutine driving the engine, with at most one in
	// flight.
	var order []int
	if gate == nil && workers > 1 {
		order = e.lpt.plan(stripes)
	}
	var s1 report.Span
	if e.rec != nil {
		s1 = e.rec.StartSpan("phase", "s1")
	}
	prap.ForEach(workers, n, order, run)
	if e.rec != nil {
		s1.End()
	}
}

// commitStep1 folds column c of the bank's side-effect-free stripe
// outcomes into the persistent ledger and statistics, in stripe order,
// and returns that column's sorted intermediate record lists (headers
// owned by the bank, records by its per-stripe slots — both live until
// the consuming step 2 finishes, which the two-bank rotation
// guarantees).
func (e *Engine) commitStep1(stripes []*matrix.Stripe, bank *stripeBank, c int) ([][]types.Record, error) {
	e.noteStripeSkew(stripes)
	n := len(stripes)
	lists := bank.lists[c*n : (c+1)*n]
	for k, out := range bank.outcomes[c*n : (c+1)*n] {
		if out.err != nil {
			return nil, out.err
		}
		lists[k] = out.recs
		e.charge(out.traffic)
		e.stats.Products += out.st.Products
		e.stats.HDN.HDNRecords += out.st.HDN.HDNRecords
		e.stats.HDN.GeneralRecords += out.st.HDN.GeneralRecords
		e.stats.HDN.FalseRouted += out.st.HDN.FalseRouted
		e.stats.IntermediateRecords += uint64(len(out.recs))
		e.stats.CompressedVecBytes += out.compVec
		e.stats.UncompressedVecBytes += out.uncompVec
		e.stats.CompressedMatBytes += out.compMat
		e.stats.UncompressedMatBytes += out.uncompMat
	}
	return lists, nil
}

// noteStripeSkew books one step-1 run's load-skew counters alongside
// its stripe count: the total and per-run-maximum stripe nonzeros
// behind RunStats.StripeImbalance. Every path that charges Stripes
// funnels through here (or calls it beside its charge), so the skew
// surface covers SpMV, pipelined iteration, block columns, SpMSpV, and
// the sliced multi-pass path alike. The charge depends only on the
// stripe partition, never on dispatch order, so LPT scheduling and the
// gated ascending schedule book identical statistics.
func (e *Engine) noteStripeSkew(stripes []*matrix.Stripe) {
	e.stats.Stripes += len(stripes)
	e.stats.Step1Runs++
	var max uint64
	for _, s := range stripes {
		nnz := uint64(s.NNZ())
		e.stats.StripeNNZ += nnz
		if nnz > max {
			max = nnz
		}
	}
	e.stats.StripeNNZMax += max
}

// stripeTask runs one stripe's step 1, wrapped in a span on the
// executing worker's lane when a recorder is attached — the per-lane
// utilization behind the report's step-1 load-balance view.
func (e *Engine) stripeTask(worker, k int, s *matrix.Stripe, x vector.Dense, det *hdn.Detector, scr *stripeScratch, chargeMatrix bool) stripeOutcome {
	if e.rec == nil {
		return e.processStripe(s, x, det, scr, chargeMatrix)
	}
	sp := e.rec.StartSpan("step1/w"+strconv.Itoa(worker), "s"+strconv.Itoa(k))
	defer sp.End()
	return e.processStripe(s, x, det, scr, chargeMatrix)
}

// processStripe runs step 1 for one stripe and computes its full
// accounting without touching engine state beyond scr, the stripe's
// recycled scratch slot. chargeMatrix books the stripe's matrix stream
// (values + meta-data); the block path passes false for every column
// after the first, because the stripe stays resident while all k
// columns consume it — the once-per-batch accounting rule (DESIGN.md
// §11).
func (e *Engine) processStripe(s *matrix.Stripe, x vector.Dense, det *hdn.Detector, scr *stripeScratch, chargeMatrix bool) stripeOutcome {
	var out stripeOutcome
	xSeg := x[s.ColStart : s.ColStart+s.Width]
	// x segment streamed into the scratchpad once per stripe.
	out.traffic.SourceVectorBytes += s.Width * uint64(e.cfg.ValueBytes)

	scr.v = vector.Sparse{Dim: int(s.Rows), Recs: scr.recsFor(s.NNZ())}
	v := &scr.v
	st, err := step1Into(v, s, xSeg, det)
	if err != nil {
		out.err = err
		return out
	}
	out.st = st

	// Matrix stripe stream: values plus (possibly VLDI-compressed)
	// meta-data, with CSR vs RM-COO chosen by the §3.1 hypersparsity
	// rule.
	if chargeMatrix {
		nnz := uint64(s.NNZ())
		_, metaBytes := matrix.BestStripeFormat(s.Rows, nnz, e.cfg.MetaBytes)
		out.uncompMat = metaBytes
		if e.cfg.MatrixCodec != nil {
			metaBytes = e.compressedStripeMeta(s)
		}
		out.compMat = metaBytes
		out.traffic.MatrixBytes += nnz*uint64(e.cfg.ValueBytes) + metaBytes
	}

	// Intermediate vector write (the DRAM half of the round trip).
	wBytes, comp, uncomp := e.vecBytes(v.Recs)
	out.traffic.IntermediateWrite += wBytes
	out.compVec += comp
	out.uncompVec += uncomp

	if e.cfg.VectorCodec != nil {
		// Functional round trip through the codec proves the compressed
		// stream reconstructs exactly. The codec is lossless, so the
		// verification runs in place (zero allocations) instead of
		// materializing the decompressed copy; values are stored
		// uncompressed, so key-exact reconstruction is bit-identical to
		// the CompressSparse/DecompressSparse materializing round trip.
		if err := e.cfg.VectorCodec.RoundTripRecords(v.Recs, &scr.bw); err != nil {
			out.err = fmt.Errorf("core: VLDI round trip failed: %w", err)
			return out
		}
	}
	out.recs = recordsOf(v)
	return out
}

// runStep2 merges the intermediate lists through the PRaP network and
// accounts the intermediate-read and result traffic.
func (e *Engine) runStep2(lists [][]types.Record, dim uint64, yIn vector.Dense) (vector.Dense, error) {
	y := vector.NewDense(int(dim))
	if err := e.runStep2Into(lists, dim, yIn, y, 0, nil); err != nil {
		return nil, err
	}
	return y, nil
}

// runStep2Into is runStep2 draining into the caller-provided y, with
// the accounting unchanged. A positive segWidth plus a non-nil publish
// forwards the PRaP store queue's segment-completion stream (ascending,
// exactly once per segment) to the caller — the producer side of the
// ITS pipeline's bounded segment handoff.
func (e *Engine) runStep2Into(lists [][]types.Record, dim uint64, yIn, y vector.Dense, segWidth uint64, publish func(seg int)) error {
	if e.rec != nil {
		defer e.rec.StartSpan("phase", "s2").End()
	}
	for _, l := range lists {
		b, comp, uncomp := e.vecBytes(l)
		e.charge(mem.Traffic{IntermediateRead: b})
		e.stats.CompressedVecBytes += comp
		e.stats.UncompressedVecBytes += uncomp
	}
	st, err := e.network.MergeInto(lists, dim, yIn, y, segWidth, publish)
	if err != nil {
		return err
	}
	e.stats.MergeStats.Accumulate(st)
	yBytes := dim * uint64(e.cfg.ValueBytes)
	e.charge(mem.Traffic{ResultBytes: yBytes}) // y streamed out
	if yIn != nil {
		e.charge(mem.Traffic{ResultBytes: yBytes}) // y-in streamed in
	}
	return nil
}

// compressedStripeMeta returns the byte footprint of the stripe's
// VLDI-encoded meta-data, memoized in the plan cache when the stripe
// belongs to the cached plan: the matrix is immutable within a run, so
// the bits are computed once and reused every iteration.
func (e *Engine) compressedStripeMeta(s *matrix.Stripe) uint64 {
	if p := e.plan; p != nil && s.Index < len(p.stripes) && p.stripes[s.Index] == s {
		if !p.metaDone[s.Index] {
			p.metaBits[s.Index] = e.stripeMetaBits(s)
			p.metaDone[s.Index] = true
		}
		return (p.metaBits[s.Index] + 7) / 8
	}
	return (e.stripeMetaBits(s) + 7) / 8
}

// stripeMetaBits sizes the stripe's VLDI meta-data stream — the
// column-index delta stream within each row (sequential, streaming-only
// reads — §5.1) plus one row-delta per row transition — without
// materializing deltas or the encoding: the streaming sizer is exact
// (Bytes == EncodeDeltas(...).Bytes()).
func (e *Engine) stripeMetaBits(s *matrix.Stripe) uint64 {
	sizer := e.cfg.MatrixCodec.NewSizer()
	var prevRow, prevCol uint64
	first := true
	for _, ent := range s.Entries {
		if first || ent.Row != prevRow {
			rowDelta := ent.Row
			if !first {
				rowDelta = ent.Row - prevRow
			}
			sizer.AddDelta(rowDelta)
			sizer.AddDelta(ent.Col)
			prevRow, prevCol = ent.Row, ent.Col
			first = false
			continue
		}
		sizer.AddDelta(ent.Col - prevCol)
		prevCol = ent.Col
	}
	return sizer.Bits()
}

// vecBytes returns the DRAM footprint of an intermediate record stream at
// the engine's precision (VLDI-compressed when configured) together with
// the compressed/uncompressed byte deltas for the statistics. The
// compressed size comes from the streaming sizer — exactly
// EncodeDeltas(DeltasFromKeys(keys)).Bytes(), with zero intermediate
// slices.
func (e *Engine) vecBytes(recs []types.Record) (footprint, compressed, uncompressed uint64) {
	nnz := uint64(len(recs))
	raw := nnz * uint64(e.cfg.MetaBytes+e.cfg.ValueBytes)
	if e.cfg.VectorCodec == nil || nnz == 0 {
		return raw, raw, raw
	}
	sizer := e.cfg.VectorCodec.NewSizer()
	for _, r := range recs {
		if err := sizer.AddKey(r.Key); err != nil {
			// Sorted invariant violated upstream; charge uncompressed.
			return raw, raw, raw
		}
	}
	b := sizer.Bytes() + nnz*uint64(e.cfg.ValueBytes)
	return b, b, raw
}
