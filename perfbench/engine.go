package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mwmerge"
	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
)

// Iterate parameters of rmat-its and the block width of zipf-block.
const (
	itsIterations = 5
	itsDamping    = 0.85
	blockK        = 8
)

// engineCase is one in-process engine workload: how its matrix and
// operands are generated, the measured call, and the dense reference
// the call is checked against at set-up.
type engineCase struct {
	apps      int // matrix applications per call
	generate  func(p params) (*mwmerge.Matrix, error)
	inputs    func(n int, seed int64) []mwmerge.Dense
	call      func(eng *mwmerge.Engine, a *mwmerge.Matrix, in []mwmerge.Dense) ([]mwmerge.Dense, error)
	reference func(a *mwmerge.Matrix, in []mwmerge.Dense) (want, scale []mwmerge.Dense, err error)
}

// rmat-its: the paper's iterative schedule on a skewed graph. Step 2
// (presort, merge cores, drain) is the critical path and step 1 of the
// next iteration overlaps it through the ITS handoff.
var rmatITS = engineCase{
	apps: itsIterations,
	generate: func(p params) (*mwmerge.Matrix, error) {
		return mwmerge.RMAT(p.rmatScale, 8, graph.Graph500Params(), p.seed)
	},
	inputs: func(n int, seed int64) []mwmerge.Dense { return randomVectors(1, n, seed) },
	call: func(eng *mwmerge.Engine, a *mwmerge.Matrix, in []mwmerge.Dense) ([]mwmerge.Dense, error) {
		res, err := eng.Iterate(a, in[0], mwmerge.IterateOptions{Iterations: itsIterations, Overlap: true, Damping: itsDamping})
		return []mwmerge.Dense{res.X}, err
	},
	reference: func(a *mwmerge.Matrix, in []mwmerge.Dense) ([]mwmerge.Dense, []mwmerge.Dense, error) {
		want, scale, err := dampedReference(a, in[0], itsIterations, itsDamping)
		return []mwmerge.Dense{want}, []mwmerge.Dense{scale}, err
	},
}

// zipf-block: balanced stripes and a hypersparse output, k right-hand
// sides per matrix pass. Step 1 does most of the work.
var zipfBlock = engineCase{
	apps: blockK,
	generate: func(p params) (*mwmerge.Matrix, error) {
		return mwmerge.Zipf(p.zipfNodes, 8, 2.0, p.seed)
	},
	inputs: func(n int, seed int64) []mwmerge.Dense { return randomVectors(blockK, n, seed) },
	call: func(eng *mwmerge.Engine, a *mwmerge.Matrix, in []mwmerge.Dense) ([]mwmerge.Dense, error) {
		res, err := eng.SpMVBlock(a, in, nil)
		return res.Ys, err
	},
	reference: func(a *mwmerge.Matrix, in []mwmerge.Dense) ([]mwmerge.Dense, []mwmerge.Dense, error) {
		want := make([]mwmerge.Dense, len(in))
		scale := make([]mwmerge.Dense, len(in))
		for c, x := range in {
			y, err := mwmerge.ReferenceSpMV(a, x, nil)
			if err != nil {
				return nil, nil, err
			}
			want[c], scale[c] = y, absProduct(a, x)
		}
		return want, scale, nil
	},
}

func runRMATITS(p params) (*record, error)   { return runEngineCase(rmatITS, p) }
func runZipfBlock(p params) (*record, error) { return runEngineCase(zipfBlock, p) }

// randomVectors returns k operand vectors of dimension n with elements
// in [0.5, 1.5), drawn from seed.
func randomVectors(k, n int, seed int64) []mwmerge.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mwmerge.Dense, k)
	for c := range out {
		out[c] = mwmerge.NewDense(n)
		for i := range out[c] {
			out[c][i] = 0.5 + rng.Float64()
		}
	}
	return out
}

// dampedReference runs the damped iteration x ← d·A·x + (1−d)/n on the
// dense reference, with the engine's operation order for the update. It
// returns the final vector and the scale of the last application.
func dampedReference(a *mwmerge.Matrix, x0 mwmerge.Dense, iters int, damping float64) (want, scale mwmerge.Dense, err error) {
	base := (1 - damping) / float64(a.Rows)
	x := x0
	for it := 0; it < iters; it++ {
		y, err := mwmerge.ReferenceSpMV(a, x, nil)
		if err != nil {
			return nil, nil, err
		}
		for i := range y {
			y[i] *= damping
			y[i] += base
		}
		if it == iters-1 {
			scale = absProduct(a, x)
			for i := range scale {
				scale[i] = damping*scale[i] + base
			}
		}
		x = y
	}
	return x, scale, nil
}

// engineConfig is the configuration every workload measures: the
// facade default with step 1 spread over GOMAXPROCS workers.
func engineConfig() mwmerge.EngineConfig {
	cfg := mwmerge.DefaultEngineConfig()
	cfg.Workers = runtime.GOMAXPROCS(0)
	return cfg
}

// runEngineCase sets the workload up p.setups times, checks the last
// set-up against a single-worker engine and the dense reference, then
// runs the call in a closed loop for p.seconds, gating every output.
// Traced, the loop alternates between the timed engine and a second,
// recorder-attached engine, and the recorder's lanes give the
// per-layer split.
func runEngineCase(c engineCase, p params) (*record, error) {
	rec := newRecord()
	tr := newTracer()
	cfg := engineConfig()

	var (
		a                   *mwmerge.Matrix
		eng                 *mwmerge.Engine
		in, warm            []mwmerge.Dense
		setupS, genS, warmS []float64
	)
	for i := 0; i < p.setups; i++ {
		a, eng, in, warm = nil, nil, nil, nil
		runtime.GC()
		var err error
		root := tr.begin(-1, -1, "setup", fmt.Sprint("setup", i))
		gen := tr.time(root, -1, "graph.generate", func() { a, err = c.generate(p) })
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		in = c.inputs(int(a.Cols), p.seed+1)
		build := tr.time(root, -1, "engine.build", func() { eng, err = mwmerge.NewEngine(cfg) })
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		wu := tr.time(root, -1, "core.warmup", func() { warm, err = c.call(eng, a, in) })
		if err != nil {
			return nil, fmt.Errorf("warm-up call: %w", err)
		}
		tr.end(root)
		setupS = append(setupS, (gen+build+wu)/1e3)
		genS = append(genS, gen/1e3)
		warmS = append(warmS, wu)
	}
	rec.Values["setup_s"] = median(setupS)
	rec.Values["graph.generate_s"] = median(genS)
	rec.Values["core.warmup_ms"] = median(warmS)
	rec.Samples["setup_s"] = setupS
	nnz := float64(a.NNZ())
	rec.Inputs["nodes"] = float64(a.Rows)
	rec.Inputs["nnz"] = nnz
	rec.Inputs["apps_per_op"] = float64(c.apps)
	rec.Inputs["workers"] = float64(cfg.Workers)

	g, err := setupGate(c, cfg, a, in, warm, eng.Traffic())
	if err != nil {
		return rec, err
	}
	rec.Correct = true

	var tEng *mwmerge.Engine
	if p.trace {
		tcfg := cfg
		tcfg.Recorder = tr.rec
		if tEng, err = mwmerge.NewEngine(tcfg); err != nil {
			return nil, fmt.Errorf("traced engine: %w", err)
		}
		if _, err := c.call(tEng, a, in); err != nil {
			return nil, fmt.Errorf("traced warm-up: %w", err)
		}
		if err := timePartition(rec, tr, a, cfg); err != nil {
			return nil, err
		}
	}

	// The measured loop. Each op is checked against the gate outside its
	// timed interval. Allocations are read around untraced-engine ops
	// only; GC activity over the whole loop.
	var (
		samples, tracedMS []float64
		tracedOps         []int
		md, loop          memDelta
		before, after     runtime.MemStats
		loop0, loop1      runtime.MemStats
		opTime            time.Duration
	)
	st0 := eng.Stats()
	prev := map[*mwmerge.Engine]mwmerge.Traffic{eng: eng.Traffic()}
	if tEng != nil {
		prev[tEng] = tEng.Traffic()
	}
	runtime.GC()
	runtime.ReadMemStats(&loop0)
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < p.seconds; n++ {
		target, traced := eng, tEng != nil && n%2 == 1
		var opID int
		if traced {
			target = tEng
			opID = tr.beginOp("op", fmt.Sprint("op", n))
		} else {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		out, err := c.call(target, a, in)
		dt := time.Since(t0)
		if traced {
			tr.end(opID)
		} else {
			runtime.ReadMemStats(&after)
			md.add(&before, &after)
		}
		rec.Attempted++
		if err != nil {
			rec.Failed++
			return rec, fmt.Errorf("op %d: %w", n, err)
		}
		cur := target.Traffic()
		if gerr := g.check(out, cur.Sub(prev[target])); gerr != nil {
			rec.Correct = false
			return rec, fmt.Errorf("op %d: %w: %v", n, errIncorrect, gerr)
		}
		prev[target] = cur
		if traced {
			tracedMS = append(tracedMS, ms(dt))
			tracedOps = append(tracedOps, opID)
		} else {
			samples = append(samples, ms(dt))
			opTime += dt
		}
	}
	runtime.ReadMemStats(&loop1)
	loop.add(&loop0, &loop1)
	st1 := eng.Stats()

	ops := float64(len(samples))
	p50 := median(samples)
	ledgerPerOp := float64(g.ledger.Total())
	rec.Samples["op_ms"] = samples
	rec.Values["op_ms_p50"] = p50
	rec.Values["op_ms_p90"] = quantile(samples, 0.9)
	rec.Values["mteps"] = nnz * float64(c.apps) / (p50 / 1e3) / 1e6
	rec.Values["req_per_s"] = ops / opTime.Seconds()
	rec.Values["allocs_per_op"] = float64(md.allocs) / ops
	rec.Values["alloc_kb_per_op"] = float64(md.bytes) / 1024 / ops
	rec.Values["ledger_bytes_per_nnz"] = ledgerPerOp / (nnz * float64(c.apps))
	allOps := float64(rec.Attempted)
	rec.Values["runtime.gc_pause_ms_per_op"] = ms(loop.gcPause) / allOps
	rec.Values["runtime.gc_cycles_per_op"] = float64(loop.gcCycles) / allOps
	rec.Values["core.ledger_gbps"] = ledgerPerOp / (p50 / 1e3) / 1e9
	statsValues(rec, st0, st1, ops, nnz*float64(c.apps))
	rec.notApplicable("serve.handler_ms_p50", "serve.client_ms_p50", "serve.pool_do_ms_p50",
		"serve.spmv_req_ms_p50", "serve.spmv_req_ms_p90", "serve.iterate_req_ms_p50",
		"serve.iterate_req_ms_p90", "serve.batch_occupancy", "serve.rejected_ratio")

	if p.trace {
		rec.Samples["traced_op_ms"] = tracedMS
		rec.Values["trace_overhead_pct"] = 100 * (median(tracedMS) - p50) / p50
		tr.attachEngineSpans(tracedOps)
		layerValues(rec, breakdown(tr.all(), tracedOps), cfg.Workers)
	}
	rec.Spans = tr.recorded()
	return rec, nil
}

// timePartition times the stripe plan the engine builds on its first
// call, matrix.Partition1D at the engine's segment width, on its own.
func timePartition(rec *record, tr *tracer, a *mwmerge.Matrix, cfg mwmerge.EngineConfig) error {
	var stripes []*matrix.Stripe
	var err error
	rec.Values["matrix.partition_ms"] = tr.time(-1, -1, "matrix.partition", func() {
		stripes, err = matrix.Partition1D(a, cfg.SegmentWidth())
	})
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	rec.Inputs["stripes"] = float64(len(stripes))
	return nil
}

// setupGate builds the correctness gate: a single-worker, single-merge-
// worker engine repeats the call, and its outputs and ledger become the
// reference every measured op must equal. The warm-up outputs must
// already equal them, and must agree with the dense reference.
func setupGate(c engineCase, cfg mwmerge.EngineConfig, a *mwmerge.Matrix, in, warm []mwmerge.Dense, warmLedger mwmerge.Traffic) (*gate, error) {
	cfg.Workers = 1
	cfg.Merge.MergeWorkers = 1
	ref, err := mwmerge.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	want, err := c.call(ref, a, in)
	if err != nil {
		return nil, fmt.Errorf("reference engine call: %w", err)
	}
	g := &gate{want: want, ledger: ref.Traffic()}
	if err := g.check(warm, warmLedger); err != nil {
		return nil, fmt.Errorf("%w: warm-up against the single-worker engine: %v", errIncorrect, err)
	}
	dense, scale, err := c.reference(a, in)
	if err != nil {
		return nil, fmt.Errorf("dense reference: %w", err)
	}
	if err := checkReference(want, dense, scale); err != nil {
		return nil, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return g, nil
}

// statsValues derives the counter metrics from the RunStats movement of
// the timed engine over ops calls.
func statsValues(rec *record, st0, st1 core.RunStats, ops, nnzApps float64) {
	rec.Values["core.intermediate_records_per_nnz"] = float64(st1.IntermediateRecords-st0.IntermediateRecords) / ops / nnzApps
	injected := float64(st1.MergeStats.Injected - st0.MergeStats.Injected)
	emitted := float64(st1.MergeStats.Emitted - st0.MergeStats.Emitted)
	rec.Values["prap.injected_ratio"] = injected / emitted
	perCore := st1.MergeStats.Clone()
	for i := range perCore.PerCoreInput {
		if i < len(st0.MergeStats.PerCoreInput) {
			perCore.PerCoreInput[i] -= st0.MergeStats.PerCoreInput[i]
		}
	}
	rec.Values["prap.core_load_imbalance"] = perCore.LoadImbalance()
	runs := float64(st1.Step1Runs - st0.Step1Runs)
	rec.Inputs["stripes_per_step1_run"] = float64(st1.Stripes-st0.Stripes) / runs
	rec.Inputs["stripe_imbalance"] = (float64(st1.StripeNNZMax-st0.StripeNNZMax) / runs) /
		(float64(st1.StripeNNZ-st0.StripeNNZ) / float64(st1.Stripes-st0.Stripes))
	rec.Inputs["injected_ratio"] = rec.Values["prap.injected_ratio"]
}

// layerValues reduces the per-op span breakdown to the per-layer
// metrics (medians over traced ops) and the per-layer self times.
func layerValues(rec *record, ops []opLayers, workers int) {
	med := func(f func(l opLayers) float64) float64 {
		xs := make([]float64, len(ops))
		for i, l := range ops {
			xs[i] = f(l)
		}
		return median(xs)
	}
	rec.Values["core.step1_ms"] = med(func(l opLayers) float64 { return l.total["phase/s1"] })
	rec.Values["core.step1_busy_ms"] = med(func(l opLayers) float64 { return l.total["step1"] })
	rec.Values["core.step1_worker_skew"] = med(func(l opLayers) float64 {
		var most, sum float64
		for _, b := range l.workerBusy {
			most = max(most, b)
			sum += b
		}
		if sum == 0 {
			return 0
		}
		return most / (sum / float64(workers))
	})
	rec.Values["core.its_overlap_ms"] = med(func(l opLayers) float64 { return l.total["its"] })
	rec.Values["core.unattributed_pct"] = med(func(l opLayers) float64 { return 100 * l.unattributed / l.wall })
	rec.Values["prap.step2_ms"] = med(func(l opLayers) float64 { return l.total["phase/s2"] })
	rec.Values["prap.presort_busy_ms"] = med(func(l opLayers) float64 { return l.total["presort"] })
	rec.Values["prap.merge_busy_ms"] = med(func(l opLayers) float64 { return l.total["merge"] })
	rec.SelfMS = map[string]float64{}
	for _, l := range ops {
		for k := range l.self {
			rec.SelfMS[k] = med(func(l opLayers) float64 { return l.self[k] })
		}
	}
}
