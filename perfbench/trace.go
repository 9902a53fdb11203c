package main

// The traced run's span recorder. Spans are recorded by the benchmark
// around its own calls into each layer (and imported from the
// per-stage timings the pipeline already publishes); they stay in
// memory and are written once, when the run ends.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed layer call. Start and End are offsets from the
// recorder's origin; Parent is 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder collects spans from any number of goroutines.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// at converts a wall-clock instant to a recorder offset.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.origin) }

// add records a finished span and returns its ID. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
func (r *recorder) add(name string, job, parent int, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return id
}

// finish sets the interval of a span added before its end was known,
// so that its children could name it as their parent.
func (r *recorder) finish(id int, start, end time.Duration) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	r.mu.Unlock()
}

// around runs fn inside a span and returns the span's ID.
func (r *recorder) around(name string, job, parent int, fn func()) int {
	if r == nil {
		fn()
		return 0
	}
	start := time.Now()
	fn()
	return r.add(name, job, parent, r.at(start), r.at(time.Now()))
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	first := true
	var start time.Duration
	for _, v := range ivs {
		switch {
		case first:
			start, end, first = v.a, v.b, false
		case v.a > end:
			total += end - start
			start, end = v.a, v.b
		case v.b > end:
			end = v.b
		}
	}
	if !first {
		total += end - start
	}
	return total
}

// p50Self is the median self time of the spans with the given name, 0
// when there are none.
func p50Self(spans []span, self map[int]time.Duration, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(self[s.ID]))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// traceFile is the document a traced run writes: the stamp, every span,
// the layers' own counters, and the per-layer metrics derived from them.
type traceFile struct {
	Stamp    stamp              `json:"stamp"`
	Spans    []span             `json:"spans"`
	Counters map[string]any     `json:"counters"`
	Metrics  map[string]float64 `json:"metrics"`
}

// write stores the trace under dir, named for the workload and seed.
func (t *traceFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.Stamp.Workload+"-seed"+strconv.FormatInt(t.Stamp.Seed, 10)+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// zeroLayers starts a traced run's metrics with every per-layer metric
// at 0, the value of a layer the workload does not exercise.
func zeroLayers() map[string]float64 {
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	return v
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// tracedMeasurement writes the trace file and assembles a traced run's
// measurement; the job accounting covers both halves.
func tracedMeasurement(cfg config, st stamp, w0, w1 window, spans []span, counters map[string]any, v map[string]float64) (*measurement, error) {
	tf := &traceFile{Stamp: st, Spans: spans, Counters: counters, Metrics: v}
	path, err := tf.write(cfg.Out)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return &measurement{
		attempted: w0.attempted + w1.attempted,
		failed:    w0.failed + w1.failed,
		values:    v,
		notes: []string{
			fmt.Sprintf("untraced half: %s", tailNote(w0)),
			fmt.Sprintf("traced half: %s; %d spans written to %s", tailNote(w1), len(spans), path),
		},
	}, nil
}
