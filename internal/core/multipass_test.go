package core

import (
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/prap"
	"mwmerge/internal/vector"
)

// tinyWaysConfig forces multi-pass merging: 4-way network, 64-element
// segments.
func tinyWaysConfig() Config {
	return Config{
		ScratchpadBytes: 512, // 64 elements at 8B
		ValueBytes:      8,
		MetaBytes:       8,
		Lanes:           4,
		Merge:           prap.Config{Q: 1, Ways: 4, FIFODepth: 4, DPage: 256, RecordBytes: 16},
		HBM:             testHBM(),
	}
}

// TestSpMVSlicedMatchesReference runs the sliced path at Workers 1 and
// 4: its step 1 fans out through the shared driver, so the parallel run
// must also match the sequential one bitwise, with an equal ledger and
// statistics.
func TestSpMVSlicedMatchesReference(t *testing.T) {
	// 2000 columns / 64-wide segments = 32 stripes >> 4 ways.
	a, err := graph.ErdosRenyi(2000, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(2000, 72)
	want, _ := referenceSpMV(a, x, nil)
	var first vector.Dense
	var firstEng *Engine
	for _, workers := range []int{1, 4} {
		cfg := tinyWaysConfig()
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		y, passes, err := e.SpMVSliced(a, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if passes < 2 {
			t.Errorf("workers=%d: expected >= 2 merge passes for 32 lists on a 4-way network, got %d", workers, passes)
		}
		if d := y.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("workers=%d: sliced SpMV diff %g", workers, d)
		}
		if first == nil {
			first, firstEng = y, e
			continue
		}
		if !sameBits(y, first) {
			t.Errorf("workers=%d: sliced SpMV differs bitwise from workers=1", workers)
		}
		if !sameAccounting(e, firstEng) {
			t.Errorf("workers=%d: sliced ledger/stats differ from workers=1", workers)
		}
	}
}

func TestSpMVSlicedWithYIn(t *testing.T) {
	e, _ := New(tinyWaysConfig())
	a, _ := graph.ErdosRenyi(1000, 3, 73)
	x := randomX(1000, 74)
	yIn := randomX(1000, 75)
	y, _, err := e.SpMVSliced(a, x, yIn)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSpMV(a, x, yIn)
	if d := y.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("sliced y=Ax+y diff %g", d)
	}
}

func TestSpMVSlicedExceedsPlainCapacity(t *testing.T) {
	// The same problem must be rejected by SpMV but accepted by
	// SpMVSliced.
	e, _ := New(tinyWaysConfig()) // capacity = 4 x 64 = 256
	a, _ := graph.ErdosRenyi(2000, 3, 76)
	x := randomX(2000, 77)
	if _, err := e.SpMV(a, x, nil); err == nil {
		t.Fatal("plain SpMV accepted an over-capacity problem")
	}
	if _, _, err := e.SpMVSliced(a, x, nil); err != nil {
		t.Fatalf("sliced SpMV rejected it: %v", err)
	}
}

func TestSpMVSlicedCostsExtraTraffic(t *testing.T) {
	// On a problem that fits without slicing, the sliced path must cost
	// at least as much; on one that needs passes, intermediate traffic
	// must exceed the single-pass round trip.
	eBig, _ := New(testConfig()) // 64 ways: no slicing needed for this size
	a, _ := graph.ErdosRenyi(2000, 3, 78)
	x := randomX(2000, 79)
	if _, err := eBig.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	singleRT := eBig.Traffic().IntermediateWrite + eBig.Traffic().IntermediateRead

	eTiny, _ := New(tinyWaysConfig())
	if _, _, err := eTiny.SpMVSliced(a, x, nil); err != nil {
		t.Fatal(err)
	}
	multiRT := eTiny.Traffic().IntermediateWrite + eTiny.Traffic().IntermediateRead
	if multiRT <= singleRT {
		t.Errorf("multi-pass round trip %d not above single-pass %d", multiRT, singleRT)
	}
}

func TestSpMVSlicedNoPassesWhenFits(t *testing.T) {
	e, _ := New(testConfig())
	a, _ := graph.ErdosRenyi(800, 3, 80)
	x := randomX(800, 81)
	y, passes, err := e.SpMVSliced(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 0 {
		t.Errorf("in-capacity problem took %d passes", passes)
	}
	want, _ := referenceSpMV(a, x, nil)
	if d := y.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("diff %g", d)
	}
}

func TestSpMVSlicedValidation(t *testing.T) {
	e, _ := New(tinyWaysConfig())
	a := graph.Diagonal(100, 1)
	if _, _, err := e.SpMVSliced(a, randomX(50, 1), nil); err == nil {
		t.Error("bad x accepted")
	}
	if _, _, err := e.SpMVSliced(a, randomX(100, 1), randomX(50, 1)); err == nil {
		t.Error("bad yIn accepted")
	}
}
