package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mwmerge"
	"mwmerge/internal/graph"
)

// serve-mix drives the HTTP serving layer: two closed-loop clients send
// /v1/spmv and /v1/iterate requests in a fixed 3:1 order to one batching
// pool over loopback TCP.
const (
	servePool       = "g"
	serveClients    = 2
	servePoolSize   = 2
	serveMaxQueue   = 4
	serveMaxBatch   = 2
	serveWindow     = time.Millisecond
	serveIterations = 5
	// spmvOperands and iterOperands are how many distinct operand
	// vectors each route cycles through; their expected outputs are
	// computed once at set-up by a direct engine call.
	spmvOperands = 4
	iterOperands = 2
	// probeCalls is how many direct Pool.Do SpMV calls, and replayRounds
	// how many traced-engine rounds of the request mix, the traced run
	// makes after its HTTP phases.
	probeCalls   = 12
	replayRounds = 8
	// spanHeader carries a traced request's span ID to the server side.
	spanHeader = "X-Perfbench-Span"
)

const (
	routeSpMV = iota
	routeIterate
)

var routePaths = [...]string{routeSpMV: "/v1/spmv", routeIterate: "/v1/iterate"}

// routeOf returns the route of a client's j-th request: three SpMVs,
// then one Iterate.
func routeOf(j int) int {
	if j%4 == 3 {
		return routeIterate
	}
	return routeSpMV
}

// serveInputs are the operands and expected responses of serve-mix,
// fixed at set-up.
type serveInputs struct {
	a       *mwmerge.Matrix
	xs      [2][]mwmerge.Dense // per route
	bodies  [2][][]byte        // request bodies per route and operand
	want    [2][]mwmerge.Dense // expected y per route and operand
	wantRaw [2][][]byte        // the expected response bodies
}

type spmvBody struct {
	Matrix string    `json:"matrix"`
	X      []float64 `json:"x"`
}

type iterateBody struct {
	Matrix     string    `json:"matrix"`
	X0         []float64 `json:"x0"`
	Iterations int       `json:"iterations"`
	Damping    float64   `json:"damping"`
}

// replyBody is the part of a served response the gate reads.
type replyBody struct {
	Y          []float64 `json:"y"`
	Iterations int       `json:"iterations,omitempty"`
}

// newServeInputs draws the operands and computes each one's expected
// output with a direct single-worker engine call, checking the first
// operand of each route against the dense reference.
func newServeInputs(a *mwmerge.Matrix, cfg mwmerge.EngineConfig, seed int64) (*serveInputs, error) {
	in := &serveInputs{a: a}
	n := int(a.Cols)
	in.xs[routeSpMV] = randomVectors(spmvOperands, n, seed)
	in.xs[routeIterate] = randomVectors(iterOperands, n, seed+1)
	cfg.Workers = 1
	cfg.Merge.MergeWorkers = 1
	eng, err := mwmerge.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("direct engine: %w", err)
	}
	for route, xs := range in.xs {
		for i, x := range xs {
			var (
				y        mwmerge.Dense
				body     any
				reply    = replyBody{}
				err      error
				ref, scl mwmerge.Dense
			)
			if route == routeSpMV {
				y, err = eng.SpMV(a, x, nil)
				body = spmvBody{Matrix: servePool, X: x}
				if i == 0 && err == nil {
					ref, err = mwmerge.ReferenceSpMV(a, x, nil)
					scl = absProduct(a, x)
				}
			} else {
				res, ierr := eng.Iterate(a, x, mwmerge.IterateOptions{Iterations: serveIterations, Damping: itsDamping})
				y, err = res.X, ierr
				reply.Iterations = res.Iterations
				body = iterateBody{Matrix: servePool, X0: x, Iterations: serveIterations, Damping: itsDamping}
				if i == 0 && err == nil {
					ref, scl, err = dampedReference(a, x, serveIterations, itsDamping)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("direct %s call: %w", routePaths[route], err)
			}
			if ref != nil {
				if err := checkReference([]mwmerge.Dense{y}, []mwmerge.Dense{ref}, []mwmerge.Dense{scl}); err != nil {
					return nil, fmt.Errorf("%w: %s: %v", errIncorrect, routePaths[route], err)
				}
			}
			reply.Y = y
			raw, err := encodeLine(reply)
			if err != nil {
				return nil, err
			}
			req, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			in.want[route] = append(in.want[route], y)
			in.wantRaw[route] = append(in.wantRaw[route], raw)
			in.bodies[route] = append(in.bodies[route], req)
		}
	}
	return in, nil
}

// encodeLine encodes v the way the server writes a response body.
func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkReply gates one served body: equal to the expected body byte for
// byte, or else decoded and equal to the expected y bit for bit.
func checkReply(raw, wantRaw []byte, want mwmerge.Dense) error {
	if bytes.Equal(raw, wantRaw) {
		return nil
	}
	var got replyBody
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	return sameBits([]mwmerge.Dense{want}, []mwmerge.Dense{got.Y})
}

// serving is one running serve-mix stack: pool, server, loopback
// listener and the client the load generator uses.
type serving struct {
	pool   *mwmerge.EnginePool
	srv    *mwmerge.Server
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
	timed  *timedHandler
}

// startServing builds and warms the pool and starts the server on a
// loopback port.
func startServing(a *mwmerge.Matrix, cfg mwmerge.EngineConfig, tr *tracer) (*serving, error) {
	pool, err := mwmerge.NewEnginePool(mwmerge.EnginePoolConfig{
		Name: servePool, Matrix: a, Engine: cfg, Size: servePoolSize,
		MaxQueue: serveMaxQueue, MaxBatch: serveMaxBatch, BatchWindow: serveWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	srv, err := mwmerge.NewServer(mwmerge.ServerConfig{}, pool)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &serving{
		pool:  pool,
		srv:   srv,
		done:  make(chan error, 1),
		url:   "http://" + ln.Addr().String(),
		timed: &timedHandler{next: srv.Handler(), tr: tr},
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
		},
	}
	s.hs = &http.Server{Handler: s.timed}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for it to stop.
func (s *serving) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// timedHandler wraps the server's handler; while on, it records one
// span per request, parented to the client's request span.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	on   atomic.Bool
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if !h.on.Load() || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.add(parent, parent, "serve.handler", r.URL.Path, start, h.tr.now())
}

// reqSample is one client request.
type reqSample struct {
	route  int
	ms     float64
	status int // 0 for a transport error
	span   int // request span ID when traced, else -1
}

// do sends one request and gates its reply. It returns the round trip
// (request sent to body fully read), the HTTP status (0 on a transport
// error), and a non-nil error only for a reply that failed the gate.
func (s *serving) do(in *serveInputs, route, idx, spanID int, buf *bytes.Buffer) (time.Duration, int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+routePaths[route], bytes.NewReader(in.bodies[route][idx]))
	if err != nil {
		return 0, 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(spanID))
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return time.Since(t0), 0, nil
	}
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	dt := time.Since(t0)
	resp.Body.Close()
	if rerr != nil {
		return dt, 0, nil
	}
	if resp.StatusCode != http.StatusOK {
		return dt, resp.StatusCode, nil
	}
	return dt, resp.StatusCode, checkReply(buf.Bytes(), in.wantRaw[route][idx], in.want[route][idx])
}

// phase is the outcome of one closed-loop load phase.
type phase struct {
	samples   []reqSample
	elapsed   time.Duration
	mem       memDelta
	ledger    mwmerge.Traffic
	batches   [2]uint64 // flushes, batched requests
	incorrect error
}

// load runs serveClients closed-loop clients for d. Each client sends
// its next request when the previous reply has been read and gated.
// With traced set, every request gets a span the server side parents
// its handler span to.
func (s *serving) load(in *serveInputs, d time.Duration, tr *tracer, traced bool) phase {
	var ph phase
	var before, after runtime.MemStats
	ledger0 := s.ledger()
	bs0, _ := s.pool.BatchStats()
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	per := make([][]reqSample, serveClients)
	errs := make([]error, serveClients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := 0; !stop.Load() && time.Since(start) < d; j++ {
				route := routeOf(j)
				idx := (c + j/4) % len(in.bodies[route])
				spanID := -1
				if traced {
					spanID = tr.beginOp("serve.request", routePaths[route])
				}
				dt, status, err := s.do(in, route, idx, spanID, &buf)
				if traced {
					tr.end(spanID)
				}
				per[c] = append(per[c], reqSample{route: route, ms: ms(dt), status: status, span: spanID})
				if err != nil {
					errs[c] = fmt.Errorf("%s operand %d: %w: %v", routePaths[route], idx, errIncorrect, err)
					stop.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	ph.mem.add(&before, &after)
	ledger1 := s.ledger()
	ph.ledger = ledger1.Sub(ledger0)
	bs1, _ := s.pool.BatchStats()
	ph.batches = [2]uint64{bs1.Flushes - bs0.Flushes, bs1.Requests - bs0.Requests}
	for c := range per {
		ph.samples = append(ph.samples, per[c]...)
		if errs[c] != nil && ph.incorrect == nil {
			ph.incorrect = errs[c]
		}
	}
	return ph
}

// ledger returns the server's aggregated pool ledger.
func (s *serving) ledger() mwmerge.Traffic { return s.srv.AggregatedLedger().Traffic }

// runServeMix sets serve-mix up p.setups times, then measures the
// closed-loop request mix. Traced, the run is split into an untraced
// and a traced HTTP phase of equal length, followed by direct Pool.Do
// calls and a traced-engine replay of the mix for the engine lanes.
func runServeMix(p params) (*record, error) {
	rec := newRecord()
	tr := newTracer()
	cfg := engineConfig()

	var (
		a                   *mwmerge.Matrix
		s                   *serving
		in                  *serveInputs
		setupS, genS, warmS []float64
	)
	defer func() {
		if s != nil {
			_ = s.close() // the run's outcome is already decided
		}
	}()
	for i := 0; i < p.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
		}
		a, s = nil, nil
		runtime.GC()
		var err error
		root := tr.begin(-1, -1, "setup", fmt.Sprint("setup", i))
		gen := tr.time(root, -1, "graph.generate", func() {
			a, err = mwmerge.RMAT(p.serveScale, 8, graph.Graph500Params(), p.seed)
		})
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		// Every set-up regenerates the same graph from the seed, so the
		// operands and expected outputs computed on the first stay valid;
		// in.a follows the graph the live pool serves.
		if in == nil {
			if in, err = newServeInputs(a, cfg, p.seed+1); err != nil {
				return rec, err
			}
		}
		in.a = a
		build := tr.time(root, -1, "serve.pool_build", func() { s, err = startServing(a, cfg, tr) })
		if err != nil {
			return nil, err
		}
		// One request per route warms the stack; the pool build has
		// already warmed each member with an SpMV.
		var buf bytes.Buffer
		wu := tr.time(root, -1, "serve.warmup", func() {
			for route := range routePaths {
				_, status, gerr := s.do(in, route, 0, -1, &buf)
				if gerr != nil {
					err = fmt.Errorf("%w: warm-up %s: %v", errIncorrect, routePaths[route], gerr)
					return
				}
				if status != http.StatusOK {
					err = fmt.Errorf("warm-up %s: status %d", routePaths[route], status)
					return
				}
			}
		})
		tr.end(root)
		if err != nil {
			return rec, err
		}
		setupS = append(setupS, (gen+build+wu)/1e3)
		genS = append(genS, gen/1e3)
		warmS = append(warmS, wu)
	}
	rec.Values["setup_s"] = median(setupS)
	rec.Values["graph.generate_s"] = median(genS)
	rec.Samples["setup_s"] = setupS
	rec.Samples["serve_warmup_ms"] = warmS
	nnz := float64(a.NNZ())
	rec.Inputs["nodes"] = float64(a.Rows)
	rec.Inputs["nnz"] = nnz
	rec.Inputs["clients"] = serveClients
	rec.Correct = true

	d := p.seconds
	if p.trace {
		d /= 2
	}
	ph := s.load(in, d, tr, false)
	if err := phaseValues(rec, ph, nnz); err != nil {
		return rec, err
	}
	if !p.trace {
		rec.Spans = tr.recorded()
		return rec, nil
	}

	if err := timePartition(rec, tr, a, cfg); err != nil {
		return rec, err
	}
	s.timed.on.Store(true)
	tph := s.load(in, d, tr, true)
	s.timed.on.Store(false)
	if err := tracedPhaseValues(rec, tph, tr); err != nil {
		return rec, err
	}
	if err := s.probe(rec, in); err != nil {
		return rec, err
	}
	if err := replay(rec, in, cfg, tr); err != nil {
		return rec, err
	}
	rec.Spans = tr.recorded()
	return rec, nil
}

// phaseValues books an untraced phase: the end-to-end metrics and the
// serving counters. A reply that failed the gate fails the run; refused
// requests and transport errors count as failed.
func phaseValues(rec *record, ph phase, nnz float64) error {
	var all []float64
	var routes [2][]float64
	var apps float64
	rejected := 0
	for _, r := range ph.samples {
		rec.Attempted++
		switch {
		case r.status == http.StatusOK:
			all = append(all, r.ms)
			routes[r.route] = append(routes[r.route], r.ms)
			apps++
			if r.route == routeIterate {
				apps += serveIterations - 1
			}
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			rejected++
			rec.Failed++
		default:
			rec.Failed++
		}
	}
	if ph.incorrect != nil {
		rec.Correct = false
		return ph.incorrect
	}
	ok := float64(len(all))
	if ok == 0 {
		return fmt.Errorf("no request succeeded")
	}
	attempted := float64(len(ph.samples))
	sec := ph.elapsed.Seconds()
	rec.Samples["req_ms"] = all
	rec.Samples["spmv_req_ms"] = routes[routeSpMV]
	rec.Samples["iterate_req_ms"] = routes[routeIterate]
	rec.Values["op_ms_p50"] = median(all)
	rec.Values["op_ms_p90"] = quantile(all, 0.9)
	rec.Values["req_per_s"] = ok / sec
	rec.Values["mteps"] = nnz * apps / sec / 1e6
	rec.Values["allocs_per_op"] = float64(ph.mem.allocs) / attempted
	rec.Values["alloc_kb_per_op"] = float64(ph.mem.bytes) / 1024 / attempted
	rec.Values["ledger_bytes_per_nnz"] = float64(ph.ledger.Total()) / (nnz * apps)
	rec.Values["serve.spmv_req_ms_p50"] = median(routes[routeSpMV])
	rec.Values["serve.spmv_req_ms_p90"] = quantile(routes[routeSpMV], 0.9)
	rec.Values["serve.iterate_req_ms_p50"] = median(routes[routeIterate])
	rec.Values["serve.iterate_req_ms_p90"] = quantile(routes[routeIterate], 0.9)
	rec.Values["serve.rejected_ratio"] = float64(rejected) / attempted
	rec.Values["serve.batch_occupancy"] = 0
	if ph.batches[0] > 0 {
		rec.Values["serve.batch_occupancy"] = float64(ph.batches[1]) / float64(ph.batches[0])
	}
	rec.Values["runtime.gc_pause_ms_per_op"] = ms(ph.mem.gcPause) / attempted
	rec.Values["runtime.gc_cycles_per_op"] = float64(ph.mem.gcCycles) / attempted
	return nil
}

// tracedPhaseValues books the traced HTTP phase: handler time from the
// server-side spans, client time as the round trip minus it, and the
// tracing overhead on the SpMV route.
func tracedPhaseValues(rec *record, ph phase, tr *tracer) error {
	if ph.incorrect != nil {
		rec.Correct = false
		return ph.incorrect
	}
	handler := map[int]float64{}
	for _, sp := range tr.all() {
		if sp.Layer == "serve.handler" {
			handler[sp.Parent] = sp.ms()
		}
	}
	var rtt, hms, cms []float64
	for _, r := range ph.samples {
		rec.Attempted++
		if r.status != http.StatusOK {
			rec.Failed++
			continue
		}
		if r.route != routeSpMV {
			continue
		}
		h, ok := handler[r.span]
		if !ok {
			return fmt.Errorf("request span %d has no handler span", r.span)
		}
		rtt = append(rtt, r.ms)
		hms = append(hms, h)
		cms = append(cms, r.ms-h)
	}
	if len(rtt) == 0 {
		return fmt.Errorf("no traced SpMV request succeeded")
	}
	rec.Samples["traced_spmv_req_ms"] = rtt
	rec.Samples["traced_spmv_handler_ms"] = hms
	rec.Values["serve.handler_ms_p50"] = median(hms)
	rec.Values["serve.client_ms_p50"] = median(cms)
	untraced := rec.Values["serve.spmv_req_ms_p50"]
	rec.Values["trace_overhead_pct"] = 100 * (median(rtt) - untraced) / untraced
	return nil
}

// probe times direct Pool.Do calls running the served SpMV, gating each.
func (s *serving) probe(rec *record, in *serveInputs) error {
	x := in.xs[routeSpMV][0]
	var times []float64
	for i := 0; i < probeCalls; i++ {
		var y mwmerge.Dense
		t0 := time.Now()
		err := s.pool.Do(context.Background(), func(eng *mwmerge.Engine) error {
			var err error
			y, err = eng.SpMV(in.a, x, nil)
			return err
		})
		dt := time.Since(t0)
		if err != nil {
			return fmt.Errorf("Pool.Do: %w", err)
		}
		if err := sameBits(in.want[routeSpMV][:1], []mwmerge.Dense{y}); err != nil {
			rec.Correct = false
			return fmt.Errorf("Pool.Do: %w: %v", errIncorrect, err)
		}
		times = append(times, ms(dt))
	}
	rec.Samples["pool_do_ms"] = times
	rec.Values["serve.pool_do_ms_p50"] = median(times)
	return nil
}

// replay runs the request mix's engine calls — a one-column SpMVBlock,
// as most batcher flushes are, three times, then one Iterate — on a
// fresh recorder-attached engine, one op per round, for the engine
// layers behind the served requests. Its first call is the warm-up.
func replay(rec *record, in *serveInputs, cfg mwmerge.EngineConfig, tr *tracer) error {
	cfg.Recorder = tr.rec
	eng, err := mwmerge.NewEngine(cfg)
	if err != nil {
		return fmt.Errorf("replay engine: %w", err)
	}
	a := in.a
	spmv := func(i int) error {
		res, err := eng.SpMVBlock(a, in.xs[routeSpMV][i:i+1], nil)
		if err != nil {
			return err
		}
		return sameBits(in.want[routeSpMV][i:i+1], res.Ys)
	}
	warmStart := time.Now()
	if err := spmv(0); err != nil {
		return fmt.Errorf("replay warm-up: %w", err)
	}
	rec.Values["core.warmup_ms"] = ms(time.Since(warmStart))

	var ops []int
	var wall []float64
	st0 := eng.Stats()
	led0 := eng.Traffic()
	for r := 0; r < replayRounds; r++ {
		id := tr.beginOp("op", fmt.Sprint("round", r))
		for j := 0; j < 4; j++ {
			route := routeOf(j)
			idx := r % len(in.xs[route])
			if route == routeSpMV {
				err = spmv(idx)
			} else {
				res, ierr := eng.Iterate(a, in.xs[route][idx], mwmerge.IterateOptions{Iterations: serveIterations, Damping: itsDamping})
				err = ierr
				if err == nil {
					err = sameBits(in.want[route][idx:idx+1], []mwmerge.Dense{res.X})
				}
			}
			if err != nil {
				rec.Correct = false
				return fmt.Errorf("replay round %d: %w: %v", r, errIncorrect, err)
			}
		}
		tr.end(id)
		ops = append(ops, id)
		wall = append(wall, tr.get(id).ms())
	}
	st1 := eng.Stats()
	roundApps := float64(3 + serveIterations)
	nnz := float64(a.NNZ())
	statsValues(rec, st0, st1, replayRounds, nnz*roundApps)
	perRound := float64(eng.Traffic().Sub(led0).Total()) / replayRounds
	rec.Values["core.ledger_gbps"] = perRound / (median(wall) / 1e3) / 1e9
	rec.Samples["replay_round_ms"] = wall
	tr.attachEngineSpans(ops)
	layerValues(rec, breakdown(tr.all(), ops), cfg.Workers)
	return nil
}
