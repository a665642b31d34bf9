// Command perfbench is the repository benchmark. It runs one named
// workload of the Two-Step SpMV engine on inputs generated from a seed,
// checks every output, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer split — as the last line of standard output:
//
//	bash perfbench/run.sh --workload rmat-its --seed 1 --seconds 15 --trace 0
//
// The workloads, metrics and the layer each metric belongs to are
// catalogued in README.md. The benchmark drives the engine only from
// outside, through the mwmerge facade, and imports internal packages
// only for what the facade does not export. A full record of the run
// (metadata, every per-op sample and, when traced, every span) is
// written under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errIncorrect marks a run whose outputs failed the correctness gate.
var errIncorrect = errors.New("perfbench: output failed the correctness gate")

// run parses the command line, runs one workload and prints its result.
// It returns the process exit code: 0 for a correct run, 1 when an op
// failed or an output or ledger failed the gate, 2 for a usage or
// set-up error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the measured loop runs")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer split instead of the timed run")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory the run record is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	p := fullScale
	p.seed = *seed
	p.seconds = time.Duration(*seconds * float64(time.Second))
	p.trace = *traceFlag == 1
	return execute(*name, w, p, *out, stdout, stderr)
}

// execute runs one workload and prints its result table and line.
func execute(name string, w func(params) (*record, error), p params, out string, stdout, stderr io.Writer) int {
	m := collectMeta(name, p)
	rec, err := w(p)
	if rec == nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 2
	}
	rec.Meta = m
	if rec.Attempted > 0 {
		rec.Values["failed_ratio"] = float64(rec.Failed) / float64(rec.Attempted)
	}
	if err != nil {
		rec.Error = err.Error()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
	}
	if werr := rec.write(out); werr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", werr)
		return 2
	}
	// A run the gate stopped early may lack metrics; it still exits 1.
	line, lerr := rec.resultLine(p.trace)
	if lerr == nil {
		rec.printTable(stdout, p.trace)
		fmt.Fprintln(stdout, string(line))
	}
	switch {
	case err != nil:
		return 1
	case lerr != nil:
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, lerr)
		return 2
	}
	return 0
}

// params sizes and drives one run. fullScale is what the command runs;
// the tests shrink it.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// setups is how many times set-up is repeated; setup_s is their
	// median.
	setups int
	// Input sizes: RMAT scale of rmat-its, Zipf nodes of zipf-block,
	// RMAT scale of serve-mix.
	rmatScale  uint
	zipfNodes  uint64
	serveScale uint
}

var fullScale = params{setups: 3, rmatScale: 19, zipfNodes: 1 << 18, serveScale: 16}

// workloads maps each workload name to its runner. A runner returns the
// run record; a non-nil error with a record means the gate failed or an
// op failed hard after set-up, and the record still carries what was
// measured.
var workloads = map[string]func(params) (*record, error){
	"rmat-its":   runRMATITS,
	"zipf-block": runZipfBlock,
	"serve-mix":  runServeMix,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metricDef is one declared metric; the lists below mirror
// BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"mteps", "Mnnz/s"},
	{"req_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"ledger_bytes_per_nnz", "B"},
}

var perLayer = []metricDef{
	{"graph.generate_s", "s"},
	{"matrix.partition_ms", "ms"},
	{"core.warmup_ms", "ms"},
	{"core.step1_ms", "ms"},
	{"core.step1_busy_ms", "ms"},
	{"core.step1_worker_skew", "ratio"},
	{"core.its_overlap_ms", "ms"},
	{"core.unattributed_pct", "%"},
	{"core.intermediate_records_per_nnz", "count"},
	{"core.ledger_gbps", "GB/s"},
	{"prap.step2_ms", "ms"},
	{"prap.presort_busy_ms", "ms"},
	{"prap.merge_busy_ms", "ms"},
	{"prap.injected_ratio", "ratio"},
	{"prap.core_load_imbalance", "ratio"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.client_ms_p50", "ms"},
	{"serve.pool_do_ms_p50", "ms"},
	{"serve.spmv_req_ms_p50", "ms"},
	{"serve.spmv_req_ms_p90", "ms"},
	{"serve.iterate_req_ms_p50", "ms"},
	{"serve.iterate_req_ms_p90", "ms"},
	{"serve.batch_occupancy", "ratio"},
	{"serve.rejected_ratio", "ratio"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace_overhead_pct", "%"},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured. Values holds every metric the
// workload computes; the result line picks the declared set for its
// mode. Samples holds every per-op sample, so later comparisons can be
// made from the record files alone.
type record struct {
	Meta      meta                 `json:"meta"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Error     string               `json:"error,omitempty"`
	Inputs    map[string]float64   `json:"inputs"`
	Values    map[string]float64   `json:"values"`
	Samples   map[string][]float64 `json:"samples"`
	SelfMS    map[string]float64   `json:"self_ms_per_op,omitempty"`
	Spans     []span               `json:"spans,omitempty"`
}

func newRecord() *record {
	return &record{
		Inputs:  map[string]float64{},
		Values:  map[string]float64{},
		Samples: map[string][]float64{},
	}
}

// notApplicable sets per-layer metrics of a layer the workload does not
// exercise to 0, so every traced run reports the full declared set.
func (r *record) notApplicable(names ...string) {
	for _, n := range names {
		r.Values[n] = 0
	}
}

func (r *record) resultLine(trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.Values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload did not measure metric %s", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return json.Marshal(res)
}

func (r *record) printTable(w io.Writer, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d trace=%v attempted=%d failed=%d correct=%v\n",
		r.Meta.Workload, r.Meta.Seed, trace, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", d.name, r.Values[d.name], d.unit)
	}
}

func (r *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Meta.Workload, r.Meta.Seed, boolInt(r.Meta.Trace)))
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
