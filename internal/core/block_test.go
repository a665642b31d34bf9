package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
	"mwmerge/internal/vldi"
)

// blockTestConfigs returns named engine configurations spanning the
// feature matrix block SpMV must stay bit-identical under: plain, VLDI
// on both streams, HDN routing, parallel step-1 workers, and parallel
// merge cores.
func blockTestConfigs(t *testing.T) map[string]Config {
	t.Helper()
	codec, err := vldi.NewCodec(4)
	if err != nil {
		t.Fatal(err)
	}
	plain := testConfig()
	withVLDI := testConfig()
	withVLDI.VectorCodec = codec
	withVLDI.MatrixCodec = codec
	withHDN := testConfig()
	withHDN.HDN = &hdn.Config{Threshold: 8, LoadFactor: 0.1, Hashes: 4}
	workers := testConfig()
	workers.Workers = 4
	mergeWorkers := testConfig()
	mergeWorkers.Merge.MergeWorkers = 3
	return map[string]Config{
		"plain":        plain,
		"vldi":         withVLDI,
		"hdn":          withHDN,
		"workers":      workers,
		"mergeWorkers": mergeWorkers,
	}
}

// TestSpMVBlockK1MatchesSpMV pins the degenerate batch: a k=1 block run
// must be indistinguishable from SpMV — output bits, traffic ledger,
// and statistics — and its single delta must carry the whole movement.
func TestSpMVBlockK1MatchesSpMV(t *testing.T) {
	a, err := graph.ErdosRenyi(600, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(a.Cols, 8)
	yIn := randomX(a.Rows, 9)

	for name, cfg := range blockTestConfigs(t) {
		scalar, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scalar.SpMV(a, x, yIn)
		if err != nil {
			t.Fatal(err)
		}

		blk, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := blk.SpMVBlock(a, []vector.Dense{x}, []vector.Dense{yIn})
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Ys[0].MaxAbsDiff(want); d != 0 {
			t.Errorf("%s: k=1 block output differs from SpMV by %g", name, d)
		}
		if blk.Counters() != scalar.Counters() {
			t.Errorf("%s: k=1 block ledger differs:\n got %+v\nwant %+v", name, blk.Counters(), scalar.Counters())
		}
		if !reflect.DeepEqual(blk.Stats(), scalar.Stats()) {
			t.Errorf("%s: k=1 block stats differ:\n got %+v\nwant %+v", name, blk.Stats(), scalar.Stats())
		}
		if res.Deltas[0] != blk.Counters() {
			t.Errorf("%s: k=1 delta does not carry the whole movement", name)
		}
	}
}

// TestSpMVBlockMatchesSequential checks the block invariants for k=3
// under every configuration: bit-identity of each column against a
// sequential run, the once-per-batch ledger rule (block == k sequential
// minus (k-1)x the matrix share, including the HDN filter build and
// matrix-meta VLDI footprints), and the per-column delta split. The
// skewed RMAT input gives the ungated LPT schedule a non-ascending
// dispatch order, so the Workers=4 configuration proves that the block
// path's heaviest-first dispatch cannot move a bit.
func TestSpMVBlockMatchesSequential(t *testing.T) {
	uniform, err := graph.ErdosRenyi(700, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := graph.RMAT(12, 4, graph.Graph500Params(), 13)
	if err != nil {
		t.Fatal(err)
	}
	stripes, err := matrix.Partition1D(skewed, testConfig().SegmentWidth())
	if err != nil {
		t.Fatal(err)
	}
	var lpt lptScratch
	if order := lpt.plan(stripes); sort.IntsAreSorted(order) {
		t.Fatalf("skewed input's LPT order %v is ascending; it would not exercise reordered dispatch", order)
	}
	for _, a := range []*matrix.COO{uniform, skewed} {
		checkBlockMatchesSequential(t, a)
	}
}

// checkBlockMatchesSequential runs TestSpMVBlockMatchesSequential's
// checks on one input matrix under every block test configuration.
func checkBlockMatchesSequential(t *testing.T, a *matrix.COO) {
	t.Helper()
	const k = 3
	xs := make([]vector.Dense, k)
	yIns := make([]vector.Dense, k)
	for c := range xs {
		xs[c] = randomX(a.Cols, int64(20+c))
		yIns[c] = randomX(a.Rows, int64(30+c))
	}

	for cfgName, cfg := range blockTestConfigs(t) {
		name := fmt.Sprintf("%s/n=%d", cfgName, a.Rows)
		// Single-run ledger: the matrix share every extra column saves.
		one, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := one.SpMV(a, xs[0], yIns[0]); err != nil {
			t.Fatal(err)
		}
		single := one.Counters()
		singleStats := one.Stats()

		seq, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]vector.Dense, k)
		for c := range xs {
			if want[c], err = seq.SpMV(a, xs[c], yIns[c]); err != nil {
				t.Fatal(err)
			}
		}

		blk, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := blk.SpMVBlock(a, xs, yIns)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if d := res.Ys[c].MaxAbsDiff(want[c]); d != 0 {
				t.Errorf("%s: column %d differs from sequential SpMV by %g", name, c, d)
			}
		}

		wantLedger := seq.Counters()
		wantLedger.Traffic.MatrixBytes -= (k - 1) * single.Traffic.MatrixBytes
		wantLedger.MatCompressedBytes -= (k - 1) * single.MatCompressedBytes
		wantLedger.MatUncompressedBytes -= (k - 1) * single.MatUncompressedBytes
		if blk.Counters() != wantLedger {
			t.Errorf("%s: block ledger violates the once-per-batch rule:\n got  %+v\n want %+v", name, blk.Counters(), wantLedger)
		}
		if got, want := blk.Stats().HDNFilterBytes, singleStats.HDNFilterBytes; got != want {
			t.Errorf("%s: HDN filter built %d bytes, want the single-run %d (once per batch)", name, got, want)
		}
		if got, want := blk.Stats().Stripes, k*singleStats.Stripes; got != want {
			t.Errorf("%s: Stripes = %d, want %d (every column commits its stripes)", name, got, want)
		}

		var split report.Counters
		for _, d := range res.Deltas {
			split = split.Add(d)
		}
		if split != blk.Counters() {
			t.Errorf("%s: per-column deltas do not sum to the batch ledger", name)
		}
		for c := 1; c < k; c++ {
			if res.Deltas[c].Traffic.MatrixBytes != 0 {
				t.Errorf("%s: column %d delta carries %d matrix bytes; the matrix stream belongs to column 0",
					name, c, res.Deltas[c].Traffic.MatrixBytes)
			}
		}
		if res.Deltas[0].Traffic.MatrixBytes != single.Traffic.MatrixBytes {
			t.Errorf("%s: column 0 delta carries %d matrix bytes, want the full stream %d",
				name, res.Deltas[0].Traffic.MatrixBytes, single.Traffic.MatrixBytes)
		}
	}
}

// TestSpMVBlockValidation exercises the block-specific error paths.
func TestSpMVBlockValidation(t *testing.T) {
	a, err := graph.ErdosRenyi(200, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(a.Cols, 1)
	if _, err := e.SpMVBlock(a, nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := e.SpMVBlock(a, []vector.Dense{x, x}, []vector.Dense{nil}); err == nil {
		t.Error("mismatched yIns length accepted")
	}
	if _, err := e.SpMVBlock(a, []vector.Dense{x, randomX(a.Cols+1, 2)}, nil); err == nil {
		t.Error("wrong-dimension column accepted")
	}
	if _, err := e.SpMVBlock(a, []vector.Dense{x}, []vector.Dense{randomX(a.Rows-1, 2)}); err == nil {
		t.Error("wrong-dimension y_in accepted")
	}
}

// iterateOracle is the sequential iteration loop written out with
// standalone SpMV calls: opt.Iterations applications of A, each damped
// with dampSegment, and the y-as-next-x transition booked between
// iterations. It is independent of the engine's shared iteration loop,
// so the scalar and block entry points are both checked against it.
func iterateOracle(t *testing.T, e *Engine, a *matrix.COO, x0 vector.Dense, opt IterateOptions) vector.Dense {
	t.Helper()
	base := (1 - opt.Damping) / float64(a.Rows)
	x := x0.Clone()
	for it := 0; it < opt.Iterations; it++ {
		y, err := e.SpMV(a, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Damping != 0 {
			dampSegment(y, opt.Damping, base)
		}
		x = y
		if it < opt.Iterations-1 {
			e.accountTransition(a.Rows, false)
		}
	}
	return x
}

// pageRankOracle is the sequential PageRank loop written out with
// standalone SpMV calls on the column-normalized matrix: the teleport
// base from the source's dangling mass, the L1 convergence test, and a
// transition booked whenever another SpMV follows. A nil x0 is the
// uniform start.
func pageRankOracle(t *testing.T, e *Engine, a *matrix.COO, x0 vector.Dense, damping, tol float64, maxIters int) (vector.Dense, int) {
	t.Helper()
	n := a.Rows
	norm, dangling := pageRankSetup(a)
	x := vector.NewDense(int(n))
	if x0 == nil {
		x.Fill(1 / float64(n))
	} else {
		copy(x, x0)
	}
	for it := 1; it <= maxIters; it++ {
		y, err := e.SpMV(norm, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		dampSegment(y, damping, teleportBase(x, dangling, damping, n))
		delta := l1Delta(y, x)
		x = y
		if delta < tol {
			return x, it
		}
		if it < maxIters {
			e.accountTransition(n, false)
		}
	}
	return x, maxIters
}

// sameBits reports whether two vectors are bitwise identical.
func sameBits(a, b vector.Dense) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameAccounting reports whether two engines hold identical ledgers and
// statistics.
func sameAccounting(a, b *Engine) bool {
	return a.Counters() == b.Counters() && reflect.DeepEqual(a.Stats(), b.Stats())
}

// TestIterateBlockMatchesIterate pins both non-overlapped iteration
// entry points against iterateOracle under every block configuration:
// Iterate and a k=1 IterateBlock must match it bitwise with an equal
// ledger and statistics; each column of a k=3 IterateBlock must match
// its own oracle run bitwise, with the batch ledger equal to the k
// oracle runs minus (k-1)x the matrix share of every iteration; and
// the ITS pipeline (Overlap), a separate driver, must reproduce the
// oracle's bits. Block iteration rejects the overlap schedule, whose
// two-buffer pipeline is single-column by construction.
func TestIterateBlockMatchesIterate(t *testing.T) {
	const k = 3
	a, err := graph.ErdosRenyi(500, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	x0s := make([]vector.Dense, k)
	for c := range x0s {
		x0s[c] = randomX(a.Cols, int64(40+c))
	}
	opt := IterateOptions{Iterations: 4, Damping: 0.85}
	newEngine := func(cfg Config) *Engine {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	for name, cfg := range blockTestConfigs(t) {
		oracle := newEngine(cfg)
		want := iterateOracle(t, oracle, a, x0s[0], opt)

		scalar := newEngine(cfg)
		r, err := scalar.Iterate(a, x0s[0], opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(r.X, want) || r.Iterations != opt.Iterations {
			t.Errorf("%s: Iterate differs from the oracle loop", name)
		}
		if !sameAccounting(scalar, oracle) {
			t.Errorf("%s: Iterate ledger/stats differ from the oracle loop:\n got %+v\nwant %+v", name, scalar.Counters(), oracle.Counters())
		}

		one := newEngine(cfg)
		r1, err := one.IterateBlock(a, x0s[:1], opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(r1.Xs[0], want) || r1.Iterations != opt.Iterations {
			t.Errorf("%s: k=1 IterateBlock differs from the oracle loop", name)
		}
		if !sameAccounting(one, oracle) {
			t.Errorf("%s: k=1 IterateBlock ledger/stats differ from the oracle loop", name)
		}

		overlapped := newEngine(cfg)
		ro, err := overlapped.Iterate(a, x0s[0], IterateOptions{Iterations: opt.Iterations, Damping: opt.Damping, Overlap: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(ro.X, want) {
			t.Errorf("%s: overlapped Iterate differs from the oracle loop", name)
		}

		// k oracle runs on one engine, and one SpMV's matrix share.
		seq := newEngine(cfg)
		wantCols := make([]vector.Dense, k)
		for c := range x0s {
			wantCols[c] = iterateOracle(t, seq, a, x0s[c], opt)
		}
		single := newEngine(cfg)
		if _, err := single.SpMV(a, x0s[0], nil); err != nil {
			t.Fatal(err)
		}
		share := single.Counters()

		blk := newEngine(cfg)
		res, err := blk.IterateBlock(a, x0s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != opt.Iterations {
			t.Errorf("%s: Iterations = %d, want %d", name, res.Iterations, opt.Iterations)
		}
		for c := range wantCols {
			if !sameBits(res.Xs[c], wantCols[c]) {
				t.Errorf("%s: column %d trajectory differs from the oracle loop", name, c)
			}
		}
		saved := uint64((k - 1) * opt.Iterations)
		wantLedger := seq.Counters()
		wantLedger.Traffic.MatrixBytes -= saved * share.Traffic.MatrixBytes
		wantLedger.MatCompressedBytes -= saved * share.MatCompressedBytes
		wantLedger.MatUncompressedBytes -= saved * share.MatUncompressedBytes
		if blk.Counters() != wantLedger {
			t.Errorf("%s: block ledger violates the once-per-batch rule:\n got  %+v\n want %+v", name, blk.Counters(), wantLedger)
		}

		opt := opt
		opt.Overlap = true
		if _, err := blk.IterateBlock(a, x0s, opt); err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Errorf("%s: ITS overlap accepted by block iteration: %v", name, err)
		}
	}
}

// TestPageRankBlockMatchesPageRank pins both PageRank entry points
// against pageRankOracle: PageRank must match it bitwise, in iteration
// count, ledger and statistics, and so must its overlapped (ITS) run in
// bits and iterations; PageRankBlock with uniform (nil) and arbitrary
// starts — columns converging at different iterations, which exercises
// the live-set compaction — must match each column's own oracle run.
func TestPageRankBlockMatchesPageRank(t *testing.T) {
	a, err := graph.ErdosRenyi(400, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	const (
		damping  = 0.85
		tol      = 1e-8
		maxIters = 50
	)
	newEngine := func() *Engine {
		e, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	oracle := newEngine()
	wantRank, wantIters := pageRankOracle(t, oracle, a, nil, damping, tol, maxIters)
	if wantIters == maxIters {
		t.Fatalf("oracle did not converge within %d iterations", maxIters)
	}
	for _, overlap := range []bool{false, true} {
		e := newEngine()
		rank, iters, err := e.PageRank(a, damping, tol, maxIters, overlap)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(rank, wantRank) || iters != wantIters {
			t.Errorf("overlap=%v: PageRank differs from the oracle loop (%d iterations, want %d)", overlap, iters, wantIters)
		}
		if !overlap && !sameAccounting(e, oracle) {
			t.Errorf("PageRank ledger/stats differ from the oracle loop:\n got %+v\nwant %+v", e.Counters(), oracle.Counters())
		}
	}

	starts := []vector.Dense{nil, nil, randomX(a.Cols, 51), randomX(a.Cols, 52)}
	for _, x := range starts {
		// PageRank starts are distributions; keep them positive.
		for i := range x {
			if x[i] < 0 {
				x[i] = -x[i]
			}
		}
	}
	got, err := newEngine().PageRankBlock(a, starts, damping, tol, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	for c := range starts {
		want, iters := pageRankOracle(t, newEngine(), a, starts[c], damping, tol, maxIters)
		if !sameBits(got.Ranks[c], want) {
			t.Errorf("column %d differs from its oracle run", c)
		}
		if got.Iterations[c] != iters {
			t.Errorf("column %d: %d iterations, the oracle took %d", c, got.Iterations[c], iters)
		}
	}
}
