package main

import (
	"sort"
	"strings"
	"sync"

	"mwmerge"
)

// span is one timed interval of a run. Spans of one op share Op (-1 for
// set-up); Parent is the ID of the enclosing span, -1 for a root. Times
// are nanoseconds on the run recorder's clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  uint64 `json:"start_ns"`
	End    uint64 `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps a run's spans in memory until the record is written. Its
// clock is the engine run recorder's, so the benchmark's own spans and
// the engine's lanes share one time axis. Safe for concurrent use.
type tracer struct {
	rec *mwmerge.RunRecorder

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{rec: mwmerge.NewRunRecorder()} }

func (t *tracer) now() uint64 { return t.rec.Now() }

// add records a finished span and returns its ID.
func (t *tracer) add(parent, op int, layer, name string, start, end uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: start, End: end})
	return id
}

// begin opens a span, so that children can name it as their parent
// before it ends; end closes it.
func (t *tracer) begin(parent, op int, layer, name string) int {
	now := t.now()
	return t.add(parent, op, layer, name, now, now)
}

// beginOp opens the root span of an op; the op's ID is the span's.
func (t *tracer) beginOp(layer, name string) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Op: id, Layer: layer, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// time runs fn inside a span and returns the span's duration in ms.
func (t *tracer) time(parent, op int, layer string, fn func()) float64 {
	id := t.begin(parent, op, layer, layer)
	fn()
	t.end(id)
	return t.get(id).ms()
}

// recordedOps bounds how many ops' spans a run record keeps: a traced
// zipf-block run makes hundreds of ops of over a hundred spans each.
// Metrics use every span; the record keeps the set-up spans and those
// of the first recordedOps ops.
const recordedOps = 64

// recorded returns the spans a run record keeps.
func (t *tracer) recorded() []span {
	kept := map[int]bool{}
	var out []span
	for _, s := range t.all() {
		if s.Op >= 0 && !kept[s.Op] {
			if len(kept) == recordedOps {
				continue
			}
			kept[s.Op] = true
		}
		out = append(out, s)
	}
	return out
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// layerOf maps an engine recorder lane to the layer it times: the phase
// lane's s1/s2 spans, the per-worker step-1 lanes, and the PRaP presort
// and merge-core lanes (DESIGN.md §8).
func layerOf(lane, name string) string {
	switch {
	case lane == "phase":
		return "phase/" + name
	case strings.HasPrefix(lane, "step1/"):
		return "step1"
	case strings.HasPrefix(lane, "presort/"):
		return "presort"
	case strings.HasPrefix(lane, "merge/"):
		return "merge"
	}
	return lane
}

// overlay layers annotate an op without being a part of its time: an
// "its" span marks the overlap of two iterations, whose phase spans
// already cover it, so it does not count toward covering its parent.
func overlay(layer string) bool { return layer == "its" }

// attachEngineSpans moves the engine recorder's spans that fall inside
// the given op spans into the tracer, parenting step-1 worker spans to
// the enclosing phase/s1 span and presort/merge spans to the enclosing
// phase/s2 span (or to the op when none encloses them).
func (t *tracer) attachEngineSpans(ops []int) {
	tl := t.rec.Timeline().Spans()
	sort.Slice(tl, func(i, j int) bool { return tl[i].Start < tl[j].Start })
	k := 0
	for _, opID := range ops {
		op := t.get(opID)
		for k < len(tl) && tl[k].Start < op.Start {
			k++
		}
		var inside []span
		for ; k < len(tl) && tl[k].Start <= op.End; k++ {
			s := tl[k]
			if s.Lane == "iter" {
				continue // an iteration span restates the op's own interval
			}
			inside = append(inside, span{Layer: layerOf(s.Lane, s.Name), Name: s.Lane + ":" + s.Name, Start: s.Start, End: s.End})
		}
		ids := make([]int, len(inside))
		for i := range ids {
			ids[i] = -1
		}
		for i, s := range inside {
			parent := opID
			if !strings.HasPrefix(s.Layer, "phase/") {
				if ph := enclosing(inside, ids, s, phaseOf(s.Layer)); ph >= 0 {
					parent = ph
				}
			}
			// Phase spans precede their workers in start order, so
			// every enclosing phase already has an ID here.
			ids[i] = t.add(parent, op.Op, s.Layer, s.Name, s.Start, s.End)
		}
	}
}

func phaseOf(layer string) string {
	switch layer {
	case "step1":
		return "phase/s1"
	case "presort", "merge":
		return "phase/s2"
	}
	return ""
}

// enclosing returns the ID of the span in list with the given layer
// that contains s, or -1.
func enclosing(list []span, ids []int, s span, layer string) int {
	if layer == "" {
		return -1
	}
	for i, c := range list {
		if c.Layer == layer && c.Start <= s.Start && s.End <= c.End && ids[i] >= 0 {
			return ids[i]
		}
	}
	return -1
}

// opLayers is the per-layer breakdown of one op.
type opLayers struct {
	wall         float64            // op span, ms
	total        map[string]float64 // Σ span time per layer, ms
	self         map[string]float64 // Σ self time per layer, ms
	workerBusy   map[string]float64 // step-1 busy per worker lane, ms
	unattributed float64            // op wall not covered by phase spans, ms
}

// breakdown computes the per-layer totals and self times of every op.
// A span's self time is its duration minus the part of it that its
// non-overlay children cover.
func breakdown(spans []span, ops []int) []opLayers {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byOp := map[int][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	out := make([]opLayers, 0, len(ops))
	for _, opID := range ops {
		op := spans[opID]
		l := opLayers{
			wall:       op.ms(),
			total:      map[string]float64{},
			self:       map[string]float64{},
			workerBusy: map[string]float64{},
		}
		for _, s := range byOp[op.Op] {
			l.total[s.Layer] += s.ms()
			l.self[s.Layer] += s.ms() - covered(s, children[s.ID])
			if s.Layer == "step1" {
				lane, _, _ := strings.Cut(s.Name, ":")
				l.workerBusy[lane] += s.ms()
			}
		}
		l.unattributed = l.self["op"]
		out = append(out, l)
	}
	return out
}

// covered returns how much of parent the union of its non-overlay
// children covers, in ms.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for _, k := range kids {
		if overlay(k.Layer) {
			continue
		}
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end uint64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return float64(sum) / 1e6
}
