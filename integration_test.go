package mwmerge

// Cross-implementation integration tests: the functional engine, the
// cycle-level simulator, the PRaP network, the paged prefetch merge and
// the cache-simulated latency-bound baseline must all agree with the
// dense reference on the same inputs — across dataset families, engine
// shapes, and optimization variants.

import (
	"math/rand"
	"testing"

	"mwmerge/internal/baseline"
	"mwmerge/internal/cache"
	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/hdn"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/sim"
	"mwmerge/internal/vector"
)

func randVec(n uint64, seed int64) vector.Dense {
	rng := rand.New(rand.NewSource(seed))
	v := vector.NewDense(int(n))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestAllImplementationsAgree runs the same SpMV through every
// implementation path.
func TestAllImplementationsAgree(t *testing.T) {
	graphs := map[string]*matrix.COO{}
	if g, err := graph.ErdosRenyi(8000, 3, 1); err == nil {
		graphs["er"] = g
	} else {
		t.Fatal(err)
	}
	if g, err := graph.Zipf(8000, 10, 1.8, 2); err == nil {
		graphs["zipf"] = g
	} else {
		t.Fatal(err)
	}
	if g, err := graph.RMAT(13, 6, graph.Graph500Params(), 3); err == nil {
		graphs["rmat"] = g
	} else {
		t.Fatal(err)
	}

	for name, a := range graphs {
		name, a := name, a
		t.Run(name, func(t *testing.T) {
			x := randVec(a.Cols, 4)
			want, err := core.ReferenceSpMV(a, x, nil)
			if err != nil {
				t.Fatal(err)
			}

			// 1. Functional Two-Step engine.
			eng, err := core.New(core.Config{
				ScratchpadBytes: 16 << 10, ValueBytes: 8, MetaBytes: 8, Lanes: 8,
				Merge: prap.Config{Q: 3, Ways: 64, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16},
				HBM:   mem.DefaultHBM(),
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.SpMV(a, x, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(want); d > 1e-9 {
				t.Errorf("engine diff %g", d)
			}

			// 2. Cycle-level simulator.
			machine, err := sim.New(sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if a.Rows == a.Cols { // sim assumes square segment layout fits
				got2, rep, err := machine.Run(a, x)
				if err != nil {
					t.Fatal(err)
				}
				if d := got2.MaxAbsDiff(want); d > 1e-9 {
					t.Errorf("simulator diff %g", d)
				}
				if rep.TotalCycles() == 0 {
					t.Error("simulator reported zero cycles")
				}
			}

			// 3. Latency-bound baseline through the cache simulator.
			llc, err := cache.New(cache.Config{SizeBytes: 128 << 10, LineBytes: 64, Ways: 8})
			if err != nil {
				t.Fatal(err)
			}
			lb, err := baseline.LatencyBoundSpMV(matrix.ToCSR(a), x, nil, llc, 8, 8)
			if err != nil {
				t.Fatal(err)
			}
			if d := lb.Y.MaxAbsDiff(want); d > 1e-9 {
				t.Errorf("latency-bound diff %g", d)
			}
		})
	}
}

// TestPresortBatchesMatchSimulator pins the pre-sorter batch count the
// engine derives arithmetically (Σ⌈len(list)/p⌉ over its step-1 lists)
// to the cycle simulator, which pushes every p-record batch through the
// bitonic network and charges one cycle per batch. Both run the same
// stripe width and radix width on the same matrix, so the counts must
// be equal.
func TestPresortBatchesMatchSimulator(t *testing.T) {
	a, err := graph.RMAT(13, 6, graph.Graph500Params(), 3)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(a.Cols, 5)
	simCfg := sim.DefaultConfig()
	for _, q := range []uint{0, 2, 4} {
		simCfg.Merge.Q = q
		machine, err := sim.New(simCfg)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := machine.Run(a, x)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(core.Config{
			ScratchpadBytes: simCfg.Scratchpad.Bytes,
			ValueBytes:      simCfg.Scratchpad.WordBytes,
			MetaBytes:       8,
			Lanes:           simCfg.Lanes,
			Merge:           simCfg.Merge,
			HBM:             mem.DefaultHBM(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Config().SegmentWidth() != simCfg.SegmentWidth() {
			t.Fatalf("segment widths differ: engine %d, simulator %d", eng.Config().SegmentWidth(), simCfg.SegmentWidth())
		}
		if _, err := eng.SpMV(a, x, nil); err != nil {
			t.Fatal(err)
		}
		got := eng.Stats().MergeStats.PresortBatches
		if got == 0 || got != rep.PresortCycles {
			t.Errorf("q=%d: engine PresortBatches = %d, simulator PresortCycles = %d", q, got, rep.PresortCycles)
		}
	}
}

// TestOptimizationVariantsPreserveResults checks that every optimization
// (VLDI, HDN, ITS, and their combinations) leaves the numerics untouched.
func TestOptimizationVariantsPreserveResults(t *testing.T) {
	a, err := graph.Zipf(10_000, 8, 1.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(a.Cols, 6)
	want, _ := core.ReferenceSpMV(a, x, nil)

	mkCfg := func() core.Config {
		return core.Config{
			ScratchpadBytes: 16 << 10, ValueBytes: 8, MetaBytes: 8, Lanes: 8,
			Merge: prap.Config{Q: 2, Ways: 64, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16},
			HBM:   mem.DefaultHBM(),
		}
	}
	codec, _ := NewVLDICodec(6)
	hdnCfg := hdn.DefaultConfig()
	hdnCfg.Threshold = 100

	variants := map[string]core.Config{}
	variants["plain"] = mkCfg()
	cfg := mkCfg()
	cfg.VectorCodec = codec
	variants["vldi-vec"] = cfg
	cfg = mkCfg()
	cfg.VectorCodec = codec
	cfg.MatrixCodec = codec
	variants["vldi-both"] = cfg
	cfg = mkCfg()
	cfg.HDN = &hdnCfg
	variants["hdn"] = cfg
	cfg = mkCfg()
	cfg.VectorCodec = codec
	cfg.MatrixCodec = codec
	cfg.HDN = &hdnCfg
	variants["all"] = cfg

	for name, cfg := range variants {
		eng, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := eng.SpMV(a, x, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("%s: diff %g", name, d)
		}
	}
}

// TestVLDIReducesMeasuredTraffic confirms the compression claim on the
// actual ledger, per dataset family.
func TestVLDIReducesMeasuredTraffic(t *testing.T) {
	for _, id := range []string{"Sy-1B", "road_central", "FR"} {
		d, err := graph.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.Instantiate(1<<14, 7)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(a.Cols, 8)

		run := func(withVLDI bool) mem.Traffic {
			cfg := core.Config{
				ScratchpadBytes: 8 << 10, ValueBytes: 8, MetaBytes: 8, Lanes: 8,
				Merge: prap.Config{Q: 2, Ways: 64, FIFODepth: 4, DPage: 1 << 10, RecordBytes: 16},
				HBM:   mem.DefaultHBM(),
			}
			if withVLDI {
				codec, _ := NewVLDICodec(8)
				cfg.VectorCodec = codec
				cfg.MatrixCodec = codec
			}
			eng, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.SpMV(a, x, nil); err != nil {
				t.Fatal(err)
			}
			return eng.Traffic()
		}
		plain, compressed := run(false), run(true)
		if compressed.Total() >= plain.Total() {
			t.Errorf("%s: VLDI traffic %d not below %d", id, compressed.Total(), plain.Total())
		}
	}
}

// TestEngineMatchesAnalyticTrafficModel cross-validates the closed-form
// traffic model of perfmodel against the measured ledger on an ER graph
// (where the model is exact in expectation).
func TestEngineMatchesAnalyticTrafficModel(t *testing.T) {
	const n = 1 << 15
	a, err := graph.ErdosRenyi(n, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	segWidth := uint64(1 << 12)
	exact, err := baseline.TrafficTwoStepExact(a, segWidth, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := GraphStats{Nodes: n, Edges: uint64(a.NNZ())}
	recsModel := g.IntermediateRecords(segWidth)
	recsExact := exact.IntermediateWrite / 12 // (meta 8 + val 4)
	ratio := float64(recsModel) / float64(recsExact)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("analytic intermediate records off by %.3fx (%d vs %d)", ratio, recsModel, recsExact)
	}
}
