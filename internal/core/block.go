package core

// Block (multi-vector) SpMV: one matrix pass applied to k right-hand
// sides (DESIGN.md §11). The stripes are planned once, each stripe is
// brought on chip once per batch and fanned across the k source-vector
// segments, and step 2 merges each column's intermediate lists into its
// own dense output. The traffic ledger follows the hardware story:
// matrix bytes (values, meta-data, the HDN filter build) are charged
// once per batch, while vector-side traffic — source segments,
// intermediate round trips, results — is charged once per column. A
// block run is therefore exactly k sequential runs minus (k−1)× the
// matrix share, and because every column receives the identical
// per-column float operations in the identical order, the outputs are
// bit-identical to k sequential SpMV calls at any Workers/MergeWorkers
// setting.

import (
	"fmt"

	"mwmerge/internal/matrix"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
)

// BlockResult reports one block SpMV: the k dense outputs, and the
// per-column counter deltas the batch splits into. Deltas[c] is the
// ledger/statistics movement attributable to column c; the once-per-batch
// matrix + VLDI + HDN-filter charges land entirely in Deltas[0] (the
// column that streamed the matrix), so the deltas always sum to the
// batch's total counter movement.
type BlockResult struct {
	Ys     []vector.Dense
	Deltas []report.Counters
}

// SpMVBlock computes ys[c] = A·xs[c] + yIns[c] for every column c with
// one matrix pass. yIns may be nil (no additive inputs) or per-entry nil.
// With k=1 the result — output bits, ledger, statistics — is identical
// to SpMV. The returned vectors are freshly allocated and detached from
// the engine's arenas.
func (e *Engine) SpMVBlock(a *matrix.COO, xs, yIns []vector.Dense) (BlockResult, error) {
	var res BlockResult
	if len(xs) == 0 {
		return res, fmt.Errorf("core: block SpMV needs at least one right-hand side")
	}
	if yIns != nil && len(yIns) != len(xs) {
		return res, fmt.Errorf("core: %d y_in vectors for %d right-hand sides", len(yIns), len(xs))
	}
	for c := range xs {
		if err := e.checkSpMV(a, xs[c], blockYIn(yIns, c)); err != nil {
			return res, err
		}
	}
	ys := make([]vector.Dense, len(xs))
	for c := range ys {
		ys[c] = vector.NewDense(int(a.Rows))
	}
	deltas := make([]report.Counters, len(xs))
	if err := e.spmvBlockCompute(a, xs, yIns, ys, deltas); err != nil {
		return res, err
	}
	if !e.iterating {
		e.snapshot("spmv-block")
	}
	res.Ys = ys
	res.Deltas = deltas
	return res, nil
}

// blockYIn indexes an optional y-in set: nil when absent.
func blockYIn(yIns []vector.Dense, c int) vector.Dense {
	if yIns == nil {
		return nil
	}
	return yIns[c]
}

// spmvBlockCompute runs one k-column Two-Step application into ys (each
// length a.Rows, fully overwritten), reusing the plan cache and a k-wide
// step-1 bank. It is the engine's one non-overlapped SpMV path: SpMV
// and the sequential Iterate/PageRank loops are its k=1 runs. With
// non-nil deltas it additionally splits the batch's counter movement
// per column: deltas[c] is the cumulative-counter delta across column
// c's commit + merge, with the batch-level detector and matrix charges
// folded into deltas[0]. It re-validates the inputs so iterative
// callers surface exactly the errors a standalone SpMVBlock call would.
func (e *Engine) spmvBlockCompute(a *matrix.COO, xs, yIns, ys []vector.Dense, deltas []report.Counters) error {
	for c := range xs {
		if err := e.checkSpMV(a, xs[c], blockYIn(yIns, c)); err != nil {
			return err
		}
	}
	plan, err := e.planFor(a)
	if err != nil {
		return err
	}
	var prev report.Counters
	if deltas != nil {
		prev = e.counters()
	}
	e.chargeDetector(a, plan.det)
	bank := e.nextBank()
	e.step1Compute(plan.stripes, xs, plan.det, nil, bank)
	for c := range xs {
		lists, err := e.commitStep1(plan.stripes, bank, c)
		if err != nil {
			return err
		}
		if err := e.runStep2Into(lists, a.Rows, blockYIn(yIns, c), ys[c], 0, nil); err != nil {
			return err
		}
		if deltas != nil {
			cur := e.counters()
			deltas[c] = cur.Sub(prev)
			prev = cur
		}
	}
	return nil
}

// IterateBlockResult reports a block iterative run: the k final vectors
// and the iterations executed.
type IterateBlockResult struct {
	Xs         []vector.Dense
	Iterations int
}

// IterateBlock runs iterative SpMV over k columns at once, streaming the
// matrix once per iteration instead of once per column per iteration.
// Each column's result is bit-identical to a sequential Iterate of its
// start vector with the same options. Overlap is rejected: the ITS
// pipeline's bounded segment handoff is a two-buffer protocol between
// exactly one producer and one consumer vector, which a k-wide batch
// does not have — run columns separately when overlap matters more than
// matrix amortization.
func (e *Engine) IterateBlock(a *matrix.COO, x0s []vector.Dense, opt IterateOptions) (IterateBlockResult, error) {
	var res IterateBlockResult
	if len(x0s) == 0 {
		return res, fmt.Errorf("core: block iteration needs at least one start vector")
	}
	if opt.Iterations < 1 {
		return res, fmt.Errorf("core: iteration count must be positive")
	}
	if opt.Overlap {
		return res, fmt.Errorf("core: block iteration does not support ITS overlap")
	}
	if a.Rows != a.Cols {
		return res, fmt.Errorf("core: iterative SpMV needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if err := e.checkIterativeCapacity(a.Rows, false); err != nil {
		return res, err
	}
	for c := range x0s {
		if err := e.checkSpMV(a, x0s[c], nil); err != nil {
			return res, err
		}
	}
	xs, err := e.iterateColumns(a, x0s, opt)
	if err != nil {
		return res, err
	}
	res.Xs = xs
	res.Iterations = opt.Iterations
	return res, nil
}

// iterateColumns is the sequential (non-overlapped) iteration loop
// behind Iterate (k=1) and IterateBlock: opt.Iterations block SpMVs over
// the k columns, each followed by the damping update and, between
// iterations, one y-as-next-x round trip per column. Errors are wrapped
// with the iteration they surfaced in.
func (e *Engine) iterateColumns(a *matrix.COO, x0s []vector.Dense, opt IterateOptions) ([]vector.Dense, error) {
	k := len(x0s)
	e.reserveDense(k)
	e.iterating = true
	defer func() { e.iterating = false }()

	damping := opt.Damping
	base := (1 - damping) / float64(a.Rows)
	xs := make([]vector.Dense, k)
	ys := make([]vector.Dense, k)
	for c := range x0s {
		xs[c] = x0s[c].Clone()
	}
	for it := 0; it < opt.Iterations; it++ {
		var iterStart uint64
		if e.rec != nil {
			iterStart = e.rec.Now()
		}
		// k-wide ping-pong through the dense free list: every source
		// buffer becomes a future result buffer. The final xs are
		// returned and therefore never recycled.
		for c := range ys {
			ys[c] = e.getDense(int(a.Rows))
		}
		if err := e.spmvBlockCompute(a, xs, nil, ys, nil); err != nil {
			for c := range ys {
				e.putDense(ys[c])
			}
			return nil, fmt.Errorf("core: iteration %d: %w", it, err)
		}
		for c := range ys {
			if damping != 0 {
				dampSegment(ys[c], damping, base)
			}
			e.putDense(xs[c])
			xs[c] = ys[c]
		}
		if it < opt.Iterations-1 {
			for range xs {
				e.accountTransition(a.Rows, false)
			}
		}
		e.recordIteration(it, iterStart)
	}
	return xs, nil
}

// PageRankBlockResult reports a multi-source block PageRank run: one
// rank vector and iteration count per requested column.
type PageRankBlockResult struct {
	Ranks      []vector.Dense
	Iterations []int
}

// PageRankBlock runs damped power iteration for k start vectors against
// one resident matrix — the multi-source variant of PageRank. x0s[c] is
// column c's start vector; a nil entry means the uniform start, making a
// k×nil run bit-identical per column to k sequential PageRank calls.
// Columns converge independently: a column whose L1 delta drops below
// tol retires from the batch with its iteration count while the rest
// continue, and shrinking the batch never perturbs the survivors — each
// column's numerics depend only on its own lane. The teleport model is
// the scalar one (uniform teleport plus dangling-mass redistribution),
// not personalized teleport, which is what keeps the per-segment update
// identical to PageRank's.
func (e *Engine) PageRankBlock(a *matrix.COO, x0s []vector.Dense, damping, tol float64, maxIters int) (PageRankBlockResult, error) {
	var res PageRankBlockResult
	k := len(x0s)
	if k == 0 {
		return res, fmt.Errorf("core: block PageRank needs at least one column")
	}
	if a.Rows != a.Cols {
		return res, fmt.Errorf("core: PageRank needs a square matrix")
	}
	// Capacity is checked before the O(nnz) normalization below: an
	// over-capacity matrix must fail fast, not after a full clone.
	if err := e.checkIterativeCapacity(a.Rows, false); err != nil {
		return res, err
	}
	n := a.Rows
	for c := range x0s {
		if x0s[c] != nil && uint64(len(x0s[c])) != n {
			return res, fmt.Errorf("core: column %d start vector has dimension %d, want %d", c, len(x0s[c]), n)
		}
	}
	norm, dangling := pageRankSetup(a)

	ranks := make([]vector.Dense, k)
	iters := make([]int, k)
	// The live set: sources and original column indices of the columns
	// still iterating, compacted in place as columns retire.
	xs := make([]vector.Dense, k)
	cols := make([]int, k)
	for c := range x0s {
		x := vector.NewDense(int(n))
		if x0s[c] == nil {
			x.Fill(1 / float64(n))
		} else {
			copy(x, x0s[c])
		}
		xs[c] = x
		cols[c] = c
	}
	if maxIters < 1 {
		copy(ranks, xs)
		res.Ranks = ranks
		res.Iterations = iters
		return res, nil
	}
	e.reserveDense(k)
	e.iterating = true
	defer func() { e.iterating = false }()

	ys := make([]vector.Dense, k)
	for it := 1; it <= maxIters; it++ {
		var iterStart uint64
		if e.rec != nil {
			iterStart = e.rec.Now()
		}
		live := len(xs)
		ys = ys[:live]
		for i := range ys {
			ys[i] = e.getDense(int(n))
		}
		if err := e.spmvBlockCompute(norm, xs, nil, ys, nil); err != nil {
			for i := range ys {
				e.putDense(ys[i])
			}
			return res, err
		}
		// Damp, test convergence, and retire or advance each live column.
		w := 0
		for i := 0; i < live; i++ {
			dampSegment(ys[i], damping, teleportBase(xs[i], dangling, damping, n))
			delta := l1Delta(ys[i], xs[i])
			e.putDense(xs[i])
			if delta < tol || it == maxIters {
				ranks[cols[i]] = ys[i]
				iters[cols[i]] = it
				continue
			}
			xs[w] = ys[i]
			cols[w] = cols[i]
			w++
		}
		xs = xs[:w]
		cols = cols[:w]
		// Columns that continue book their y-as-next-x round trip, as in
		// the scalar driver.
		for range xs {
			e.accountTransition(n, false)
		}
		e.recordIteration(it-1, iterStart)
		if w == 0 {
			break
		}
	}
	res.Ranks = ranks
	res.Iterations = iters
	return res, nil
}
