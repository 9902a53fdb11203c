// Package obs is the supervisor's observability substrate:
//
//   - the Recorder (this file): per-stage atomic counters and duration
//     histograms, the Metrics summary embedded in the conversion Report
//     and rendered by `progconv convert -stats` and cmd/exper; the
//     duration each span returns is the one the supervisor puts on the
//     stage-end event;
//   - the structured event log (event.go): typed Events through a Sink,
//     with a bounded RingSink, a streaming JSONL encoder, and a nil-safe
//     Emitter so uninstrumented runs pay nothing;
//   - the DataPlane report totals (dataplane.go).
//
// The event-derived counters, the stage latency histograms and their
// Prometheus exposition live in internal/telemetry (Instruments is a
// Sink), as does the Chrome trace export; all fold the same events.
//
// The package is stdlib-only and safe for concurrent use: the hot path
// (span End, no-sink event emission) touches only atomics and one short
// mutex, and allocates nothing, so instrumented parallel runs stay
// within measurement noise of uninstrumented ones.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one Figure 4.1 pipeline box.
type Stage uint8

// The pipeline stages, in execution order.
const (
	StageAnalyze Stage = iota
	StageConvert
	StageOptimize
	StageGenerate
	StageVerify
	numStages
)

var stageNames = [numStages]string{
	"analyze", "convert", "optimize", "generate", "verify",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Stages returns every stage in execution order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// numBuckets histogram buckets cover 1µs·4ⁱ boundaries: <1µs, <4µs,
// <16µs, … <~4.3s, plus a final overflow bucket.
const numBuckets = 17

// BucketBound returns the exclusive upper duration bound of bucket i
// (the last bucket is unbounded).
func BucketBound(i int) time.Duration {
	return time.Microsecond << (2 * uint(i))
}

func bucketOf(d time.Duration) int {
	for i := 0; i < numBuckets-1; i++ {
		if d < BucketBound(i) {
			return i
		}
	}
	return numBuckets - 1
}

// stageAccum is one stage's lock-free accumulator.
type stageAccum struct {
	count   atomic.Int64
	nanos   atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until first observation
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func (a *stageAccum) observe(d time.Duration) {
	n := int64(d)
	a.count.Add(1)
	a.nanos.Add(n)
	for {
		cur := a.min.Load()
		if n >= cur || a.min.CompareAndSwap(cur, n) {
			break
		}
	}
	for {
		cur := a.max.Load()
		if n <= cur || a.max.CompareAndSwap(cur, n) {
			break
		}
	}
	a.buckets[bucketOf(d)].Add(1)
}

// Recorder accumulates stage timings during one conversion run. The
// zero value is not ready; use NewRecorder.
type Recorder struct {
	stages [numStages]stageAccum
	start  time.Time

	mu       sync.Mutex
	programs map[string]struct{} // distinct instrumented program names
}

// NewRecorder returns a recorder with the wall clock started.
func NewRecorder() *Recorder {
	r := &Recorder{start: time.Now(), programs: map[string]struct{}{}}
	for i := range r.stages {
		r.stages[i].min.Store(int64(^uint64(0) >> 1))
	}
	return r
}

// ActiveSpan is a started, not-yet-ended span. It is a value (not a
// pointer) so the span hot path performs no heap allocation; the zero
// value is a valid no-op span.
type ActiveSpan struct {
	rec     *Recorder
	program string
	stage   Stage
	start   time.Time
}

// StartSpan begins timing one stage of one program. End the returned
// span exactly once. A nil *Recorder is valid and records nothing, so
// call sites need no guards.
func (r *Recorder) StartSpan(program string, stage Stage) ActiveSpan {
	if r == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{rec: r, program: program, stage: stage, start: time.Now()}
}

// End finishes the span and returns its duration, which also lands in
// the stage's atomic accumulator. A zero-value span returns 0 and
// records nothing.
func (s ActiveSpan) End() time.Duration {
	if s.rec == nil {
		return 0
	}
	d := time.Since(s.start)
	r := s.rec
	r.stages[s.stage].observe(d)
	r.mu.Lock()
	r.programs[s.program] = struct{}{}
	r.mu.Unlock()
	return d
}

// StageStats is one stage's aggregate across a run.
type StageStats struct {
	Stage   Stage
	Count   int64
	Total   time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [numBuckets]int64
}

// Mean returns the average span duration (0 when nothing was recorded).
func (s StageStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Metrics is the run summary embedded in a conversion Report.
type Metrics struct {
	// Wall is the elapsed time from recorder creation to snapshot.
	Wall time.Duration
	// Programs counts distinct instrumented programs.
	Programs int
	// ByStage holds per-stage aggregates in execution order; stages
	// that never ran have Count 0.
	ByStage []StageStats
}

// Snapshot freezes the recorder into a Metrics summary.
func (r *Recorder) Snapshot() *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{Wall: time.Since(r.start)}
	r.mu.Lock()
	m.Programs = len(r.programs)
	r.mu.Unlock()
	for i := range r.stages {
		a := &r.stages[i]
		st := StageStats{Stage: Stage(i), Count: a.count.Load(),
			Total: time.Duration(a.nanos.Load())}
		if st.Count > 0 {
			st.Min = time.Duration(a.min.Load())
			st.Max = time.Duration(a.max.Load())
		}
		for b := range st.Buckets {
			st.Buckets[b] = a.buckets[b].Load()
		}
		m.ByStage = append(m.ByStage, st)
	}
	return m
}

// Stage returns the aggregate for one stage (zero stats if out of
// range).
func (m *Metrics) Stage(s Stage) StageStats {
	if m == nil || int(s) >= len(m.ByStage) {
		return StageStats{Stage: s}
	}
	return m.ByStage[s]
}

// sparkline renders a histogram as one glyph per occupied bucket range.
var sparks = []rune("▁▂▃▄▅▆▇█")

func sparkline(buckets [numBuckets]int64) string {
	lo, hi := -1, -1
	var peak int64
	for i, n := range buckets {
		if n > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if n > peak {
				peak = n
			}
		}
	}
	if lo < 0 {
		return ""
	}
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		if buckets[i] == 0 {
			b.WriteRune(' ')
			continue
		}
		idx := int(buckets[i] * int64(len(sparks)-1) / peak)
		b.WriteRune(sparks[idx])
	}
	return b.String()
}

// String renders the summary as the -stats table.
func (m *Metrics) String() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "STAGE TIMINGS (wall %s, %d programs)\n",
		m.Wall.Round(time.Microsecond), m.Programs)
	fmt.Fprintf(&b, "%-10s %7s %12s %12s %12s %12s  %s\n",
		"stage", "spans", "total", "mean", "min", "max", "histogram")
	for _, st := range m.ByStage {
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %7d %12s %12s %12s %12s  %s\n",
			st.Stage, st.Count,
			st.Total.Round(time.Microsecond), st.Mean().Round(time.Microsecond),
			st.Min.Round(time.Microsecond), st.Max.Round(time.Microsecond),
			sparkline(st.Buckets))
	}
	b.WriteString("histogram buckets: 1µs·4ⁱ upper bounds (<1µs, <4µs, <16µs, …; last bucket unbounded)\n")
	return b.String()
}
