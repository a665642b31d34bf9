package core

import (
	"fmt"
	"strconv"

	"mwmerge/internal/matrix"
	"mwmerge/internal/vector"
)

// IterateOptions controls iterative SpMV execution (x_{i+1} = A·x_i ...),
// the pattern of PageRank-style workloads (§5.2).
type IterateOptions struct {
	// Iterations is the number of SpMV applications.
	Iterations int
	// Overlap enables Iteration-overlapped Two-Step (ITS): step 2 of
	// iteration i runs concurrently with step 1 of iteration i+1
	// through a bounded segment handoff (see pipeline.go), the
	// y_i = x_{i+1} DRAM round trip between iterations disappears, and
	// the engine needs two source-vector segment buffers, halving the
	// maximum dimension. The result is bit-identical to the sequential
	// schedule.
	Overlap bool
	// Damping, when non-zero, applies the PageRank update
	// x' = Damping·A·x + (1-Damping)/N after each multiplication.
	Damping float64
}

// IterateResult reports an iterative run.
type IterateResult struct {
	X          vector.Dense
	Iterations int
	// TransitionBytesSaved is the y round-trip traffic ITS eliminated.
	TransitionBytesSaved uint64
}

// accountTransition books the traffic of one inter-iteration transition:
// the freshly produced y must be streamed back in as the next source
// vector. runStep2 already charged the y stream-out of every SpMV call,
// so only the x re-read is charged here — charging both would count the
// y-out bytes twice per transition. With ITS overlap the segment stays
// on chip in the second buffer and the bytes are recorded as saved
// instead. Returns the transition byte count either way.
func (e *Engine) accountTransition(rows uint64, overlap bool) uint64 {
	transition := rows * uint64(e.cfg.ValueBytes) // y re-read as the next x
	if overlap {
		e.stats.TransitionBytesSaved += transition
	} else {
		e.traffic.ResultBytes += transition
	}
	return transition
}

// recordIteration closes the observability record of one loop iteration:
// an "iter" lane span covering it and a counter-delta snapshot. Under
// the ITS pipeline an iteration's span starts when its step 1 starts —
// inside the previous iteration's span — so consecutive spans on the
// lane genuinely overlap. No-op without a recorder.
func (e *Engine) recordIteration(it int, start uint64) {
	if e.rec == nil {
		return
	}
	e.rec.AddSpan("iter", "i"+strconv.Itoa(it), start, e.rec.Now())
	e.snapshot("iter")
}

// checkIterativeCapacity enforces the iterative-run capacity bound.
// Iterate and PageRank share Config.CheckIterativeCapacity so their
// error messages cannot drift apart from each other or from the serving
// layer's admission check.
func (e *Engine) checkIterativeCapacity(dim uint64, overlap bool) error {
	return e.cfg.CheckIterativeCapacity(dim, overlap)
}

// Iterate runs iterative SpMV. With Overlap set, the engine verifies the
// halved-capacity constraint (two segments must fit in the scratchpad)
// and then executes the software ITS pipeline: step 2 of each iteration
// streams its result segments to step 1 of the next, which runs
// concurrently. Overlap and non-overlap produce bit-identical vectors —
// the differences are wall-clock, the traffic ledger and the capacity
// bound, exactly as in the paper's Table 2.
func (e *Engine) Iterate(a *matrix.COO, x0 vector.Dense, opt IterateOptions) (IterateResult, error) {
	var res IterateResult
	if opt.Iterations < 1 {
		return res, fmt.Errorf("core: iteration count must be positive")
	}
	if a.Rows != a.Cols {
		return res, fmt.Errorf("core: iterative SpMV needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if err := e.checkIterativeCapacity(a.Rows, opt.Overlap); err != nil {
		return res, err
	}

	if !opt.Overlap {
		// The sequential schedule is the k=1 block loop. x0 is not
		// pre-checked, so a dimension error reads "iteration 0: ...",
		// exactly as the first SpMV of the loop reports it.
		xs, err := e.iterateColumns(a, []vector.Dense{x0}, opt)
		if err != nil {
			return res, err
		}
		res.X = xs[0]
		res.Iterations = opt.Iterations
		return res, nil
	}

	e.iterating = true
	defer func() { e.iterating = false }()
	var hooks pipelineHooks
	if damping := opt.Damping; damping != 0 {
		base := (1 - damping) / float64(a.Rows)
		hooks.update = func(int, vector.Dense) func(vector.Dense) {
			return func(seg vector.Dense) { dampSegment(seg, damping, base) }
		}
	}
	x, iters, saved, err := e.iteratePipelined(a, x0, opt.Iterations, hooks)
	if err != nil {
		return res, err
	}
	res.X = x
	res.Iterations = iters
	res.TransitionBytesSaved = saved
	return res, nil
}

// PageRank runs damped power iteration until the L1 delta drops below tol
// or maxIters is reached, returning the rank vector and iterations used.
// It is the workload of the paper's iterative-SpMV optimization study.
// Dangling (all-zero) columns get the standard damped-PageRank
// correction: their rank mass is redistributed uniformly each iteration,
// so the returned vector always sums to 1. Inter-iteration transitions
// are accounted exactly as in Iterate, and overlap runs the ITS pipeline
// with the teleport update applied streaming per published segment —
// bit-identical to the sequential schedule.
func (e *Engine) PageRank(a *matrix.COO, damping, tol float64, maxIters int, overlap bool) (vector.Dense, int, error) {
	if !overlap {
		// The sequential schedule is the k=1 block run from the uniform
		// start; PageRankBlock applies the same checks in the same order.
		res, err := e.PageRankBlock(a, []vector.Dense{nil}, damping, tol, maxIters)
		if err != nil {
			return nil, 0, err
		}
		return res.Ranks[0], res.Iterations[0], nil
	}
	if a.Rows != a.Cols {
		return nil, 0, fmt.Errorf("core: PageRank needs a square matrix")
	}
	// Capacity is checked before the O(nnz) normalization below: an
	// over-capacity matrix must fail fast, not after a full clone.
	if err := e.checkIterativeCapacity(a.Rows, true); err != nil {
		return nil, 0, err
	}

	n := a.Rows
	norm, dangling := pageRankSetup(a)

	x := vector.NewDense(int(n))
	x.Fill(1 / float64(n))
	if maxIters < 1 {
		return x, 0, nil
	}
	e.iterating = true
	defer func() { e.iterating = false }()

	hooks := pipelineHooks{
		update: func(_ int, src vector.Dense) func(vector.Dense) {
			base := teleportBase(src, dangling, damping, n)
			return func(seg vector.Dense) { dampSegment(seg, damping, base) }
		},
		converged: func(_ int, y, src vector.Dense) bool {
			return l1Delta(y, src) < tol
		},
	}
	ranks, iters, _, err := e.iteratePipelined(norm, x, maxIters, hooks)
	return ranks, iters, err
}

// pageRankSetup builds the PageRank operand from a: the column-normalized
// clone (non-empty columns sum to 1) and the sorted dangling-column list.
// Dangling columns (sinks) push no mass through A, so ‖A·x‖₁ < 1 and
// rank mass would leak every iteration; each iteration redistributes
// their mass uniformly via the teleport base, keeping ‖x‖₁ = 1 exactly
// (up to rounding). Shared by the ITS driver behind overlapped PageRank
// and by PageRankBlock so the normalized values — and therefore the
// per-column numerics — cannot drift between the two schedules.
func pageRankSetup(a *matrix.COO) (*matrix.COO, []uint64) {
	n := a.Rows
	colSum := make([]float64, n)
	for _, ent := range a.Entries {
		colSum[ent.Col] += ent.Val
	}
	norm := a.Clone()
	for i, ent := range norm.Entries {
		if colSum[ent.Col] != 0 {
			norm.Entries[i].Val = ent.Val / colSum[ent.Col]
		}
	}
	var dangling []uint64
	for j, s := range colSum {
		if s == 0 {
			dangling = append(dangling, uint64(j))
		}
	}
	return norm, dangling
}

// teleportBase evaluates the iteration-dependent part of the update
// y = damping·A·x + base: teleport plus the dangling mass of the
// iteration's source vector, summed in index order on every schedule —
// the summation-order anchor of the scalar/block bit-identity contract.
func teleportBase(x vector.Dense, dangling []uint64, damping float64, n uint64) float64 {
	mass := 0.0
	for _, j := range dangling {
		mass += x[j]
	}
	return (1-damping)/float64(n) + damping*mass/float64(n)
}
