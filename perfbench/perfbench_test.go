package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mwmerge"
	"mwmerge/internal/graph"
)

// tiny is a scale at which every workload runs in well under a second.
var tiny = params{seed: 3, seconds: 150 * time.Millisecond, setups: 2, rmatScale: 10, zipfNodes: 1 << 11, serveScale: 9}

// declared reads the metric and workload names BENCHMARK.json declares.
func declared(t *testing.T) (workloadNames []string, e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return workloadNames, e2e, layer
}

func defsMap(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func sameKeys(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	names, e2e, layer := declared(t)
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(have)
	sort.Strings(names)
	if strings.Join(have, ",") != strings.Join(names, ",") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", have, names)
	}
	if !sameKeys(defsMap(endToEnd), e2e) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", defsMap(endToEnd), e2e)
	}
	if !sameKeys(defsMap(perLayer), layer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", defsMap(perLayer), layer)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at tiny scale,
// timed and traced, and checks the result line carries exactly the
// declared metrics with their units.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	_, e2e, layer := declared(t)
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			p := tiny
			p.trace = traced
			var stdout, stderr bytes.Buffer
			if code := execute(name, w, p, t.TempDir(), &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layer
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", name, k, m.Value)
				}
			}
			if !sameKeys(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, traced, got, want)
			}
		}
	}
}

// TestTracedSplit checks the per-layer split the engine workloads were
// chosen for holds even at tiny scale where it is structural: ITS
// overlap exists only on rmat-its, and both phases are recorded.
func TestTracedSplit(t *testing.T) {
	p := tiny
	p.trace = true
	for _, c := range []struct {
		run     func(params) (*record, error)
		overlap bool
	}{{runRMATITS, true}, {runZipfBlock, false}} {
		rec, err := c.run(p)
		if err != nil {
			t.Fatal(err)
		}
		v := rec.Values
		if v["core.step1_ms"] <= 0 || v["prap.step2_ms"] <= 0 || v["prap.merge_busy_ms"] <= 0 {
			t.Errorf("%s: phase times missing: %v", rec.Meta.Workload, v)
		}
		if got := v["core.its_overlap_ms"] > 0; got != c.overlap {
			t.Errorf("its_overlap_ms = %v, want overlap %v", v["core.its_overlap_ms"], c.overlap)
		}
		if u := v["core.unattributed_pct"]; u < 0 || u > 100 {
			t.Errorf("unattributed_pct = %v", u)
		}
	}
}

func nudge(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

func TestGateTripsOnPerturbedOutputAndLedger(t *testing.T) {
	want := []mwmerge.Dense{{1, 2, 3}, {4, 5, 6}}
	ledger := mwmerge.Traffic{MatrixBytes: 100, ResultBytes: 24}
	g := &gate{want: want, ledger: ledger}
	same := []mwmerge.Dense{{1, 2, 3}, {4, 5, 6}}
	if err := g.check(same, ledger); err != nil {
		t.Fatalf("identical outputs rejected: %v", err)
	}
	bad := []mwmerge.Dense{{1, 2, 3}, {4, nudge(5), 6}}
	if err := g.check(bad, ledger); err == nil {
		t.Error("an output one ulp off passed the gate")
	}
	negZero := []mwmerge.Dense{{1, 2, 3}, {4, 5, 6}}
	g.want[0][0] = 0
	negZero[0][0] = math.Copysign(0, -1)
	if err := g.check(negZero, ledger); err == nil {
		t.Error("-0 passed the gate against +0")
	}
	g.want[0][0] = 1
	led := ledger
	led.IntermediateRead++
	if err := g.check(same, led); err == nil {
		t.Error("a perturbed ledger passed the gate")
	}
}

func TestScaledError(t *testing.T) {
	want := mwmerge.Dense{1, 0, 3}
	scale := mwmerge.Dense{1, 0, 3}
	if e, _ := scaledError(mwmerge.Dense{nudge(1), 0, 3}, want, scale); e == 0 || e > refTolerance {
		t.Errorf("one-ulp error = %v", e)
	}
	if e, _ := scaledError(mwmerge.Dense{1, 0, 3.5}, want, scale); e <= refTolerance {
		t.Errorf("large error = %v passed", e)
	}
	if e, _ := scaledError(mwmerge.Dense{1, 1e-300, 3}, want, scale); !math.IsInf(e, 1) {
		t.Errorf("error in a zero-scale row = %v, want +Inf", e)
	}
}

// TestRunFailsOnCorruptedOutputOrLedger drives a workload whose call
// corrupts its output, or does extra ledger-charged work, on one op:
// the run must stop as incorrect and exit 1.
func TestRunFailsOnCorruptedOutputOrLedger(t *testing.T) {
	corrupt := map[string]func(eng *mwmerge.Engine, a *mwmerge.Matrix, in, out []mwmerge.Dense) error{
		"output": func(_ *mwmerge.Engine, _ *mwmerge.Matrix, _, out []mwmerge.Dense) error {
			out[0][1] = nudge(out[0][1])
			return nil
		},
		"ledger": func(eng *mwmerge.Engine, a *mwmerge.Matrix, in, _ []mwmerge.Dense) error {
			_, err := eng.SpMV(a, in[0], nil)
			return err
		},
	}
	for what, spoil := range corrupt {
		c := zipfBlock
		calls := 0
		c.call = func(eng *mwmerge.Engine, a *mwmerge.Matrix, in []mwmerge.Dense) ([]mwmerge.Dense, error) {
			out, err := zipfBlock.call(eng, a, in)
			calls++
			// Calls 1 and 2 are the warm-up and the single-worker
			// reference; call 4 is a measured op.
			if err == nil && calls == 4 {
				err = spoil(eng, a, in, out)
			}
			return out, err
		}
		p := tiny
		p.setups = 1
		rec, err := runEngineCase(c, p)
		if !errors.Is(err, errIncorrect) || rec == nil || rec.Correct {
			t.Errorf("%s corrupted: err = %v", what, err)
		}
		var stdout, stderr bytes.Buffer
		calls = 0
		run := func(p params) (*record, error) { return runEngineCase(c, p) }
		if code := execute("zipf-block", run, p, t.TempDir(), &stdout, &stderr); code != 1 {
			t.Errorf("%s corrupted: exit %d, want 1", what, code)
		}
	}
}

// TestServeClientCountsRefusals points the load generator at a server
// that refuses every request (429, then 503): every request counts as
// attempted and failed, none as incorrect.
func TestServeClientCountsRefusals(t *testing.T) {
	a, err := mwmerge.RMAT(tiny.serveScale, 8, graph.Graph500Params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig()
	in, err := newServeInputs(a, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	s, err := startServing(a, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var n atomic.Int64
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		http.Error(w, "deadline", http.StatusServiceUnavailable)
	}))
	s.url = refuse.URL
	ph := s.load(in, 100*time.Millisecond, tr, false)
	refuse.Close()
	rec := newRecord()
	rec.Correct = true
	err = phaseValues(rec, ph, float64(a.NNZ()))
	if err == nil || errors.Is(err, errIncorrect) {
		t.Errorf("all-refused phase: err = %v, want a no-success error", err)
	}
	if rec.Attempted == 0 || rec.Failed != rec.Attempted || !rec.Correct {
		t.Errorf("attempted=%d failed=%d correct=%v", rec.Attempted, rec.Failed, rec.Correct)
	}

	// A closed server is a transport error: failed as well.
	ph = s.load(in, 50*time.Millisecond, tr, false)
	rec = newRecord()
	_ = phaseValues(rec, ph, float64(a.NNZ()))
	if rec.Attempted == 0 || rec.Failed != rec.Attempted {
		t.Errorf("transport errors: attempted=%d failed=%d", rec.Attempted, rec.Failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}
