package obs_test

// Stage timing end to end on the obs side: the duration a stage attempt
// puts on its stage-end event is the only record of that attempt, and
// the one registry (telemetry.Instruments, an obs.Sink) is the fold
// that aggregates it. These tests drive the Emitter the way the
// supervisor does and read the fold back.

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"progconv/internal/obs"
	"progconv/internal/telemetry"
)

// newFold returns an emitter whose events land both in a ring (the
// event log) and in a fresh registry's instruments.
func newFold(capacity int) (*obs.Emitter, *obs.RingSink, *telemetry.Registry, *telemetry.Instruments) {
	reg := telemetry.NewRegistry()
	in := telemetry.NewInstruments(reg)
	ring := obs.NewRingSink(capacity)
	return obs.NewEmitter(obs.MultiSink(ring, in)), ring, reg, in
}

// timedAttempt runs one stage attempt with the supervisor's clock.
func timedAttempt(e *obs.Emitter, prog string, st obs.Stage, work func()) {
	e.StageStart(prog, st)
	start := time.Now()
	work()
	e.StageEnd(prog, st, time.Since(start))
}

func TestSpanAccumulation(t *testing.T) {
	e, ring, _, in := newFold(64)
	for i := 0; i < 3; i++ {
		timedAttempt(e, "P1", obs.StageConvert, func() { time.Sleep(time.Millisecond) })
	}
	timedAttempt(e, "P2", obs.StageAnalyze, func() {})

	progs := map[string]bool{}
	var min, max, total time.Duration
	var n int64
	for _, ev := range ring.Events() {
		progs[ev.Prog] = true
		if ev.Kind != obs.EvStageEnd || ev.Stage != obs.StageConvert {
			continue
		}
		if n == 0 || ev.Dur < min {
			min = ev.Dur
		}
		if ev.Dur > max {
			max = ev.Dur
		}
		total += ev.Dur
		n++
	}
	if len(progs) != 2 {
		t.Errorf("programs = %d, want 2", len(progs))
	}
	if got := in.Stage.Count("convert"); got != 3 || n != 3 {
		t.Errorf("convert count = %d (events %d), want 3", got, n)
	}
	if total < 3*time.Millisecond {
		t.Errorf("convert total = %v, want >= 3ms", total)
	}
	if sum := in.Stage.Sum("convert"); math.Abs(sum-total.Seconds()) > 1e-9 {
		t.Errorf("registry convert sum = %gs, event durations sum to %v", sum, total)
	}
	mean := total / time.Duration(n)
	if min == 0 || max < min || mean < min || mean > max {
		t.Errorf("min/mean/max inconsistent: %v/%v/%v", min, mean, max)
	}
	if got := in.Stage.Count("verify"); got != 0 {
		t.Errorf("verify count = %d, want 0", got)
	}
}

// TestNilRecorderIsInert: an untimed run reads no clock and puts a 0
// duration on every stage-end event; the fold counts the attempt and
// adds nothing to the stage's time. With no sink the emitter is nil and
// the same calls do nothing.
func TestNilRecorderIsInert(t *testing.T) {
	var nilEmitter *obs.Emitter
	nilEmitter.StageStart("X", obs.StageVerify) // must not panic
	nilEmitter.StageEnd("X", obs.StageVerify, 0)

	e, ring, _, in := newFold(8)
	e.StageStart("X", obs.StageVerify)
	e.StageEnd("X", obs.StageVerify, 0)
	for _, ev := range ring.Events() {
		if ev.Kind == obs.EvStageEnd && ev.Dur != 0 {
			t.Errorf("untimed stage-end duration = %v, want 0", ev.Dur)
		}
	}
	if n, sum := in.Stage.Count("verify"), in.Stage.Sum("verify"); n != 1 || sum != 0 {
		t.Errorf("untimed verify count/sum = %d/%g, want 1/0", n, sum)
	}
}

func TestConcurrentSpans(t *testing.T) {
	const workers, per = 8, 50
	e, ring, reg, in := newFold(workers * per * 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				timedAttempt(e, "P", obs.Stage(i%len(obs.Stages())), func() {})
			}
		}(w)
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range obs.Stages() {
		n := in.Stage.Count(st.String())
		total += n
		// The +Inf bucket holds every observation of the series; it
		// must agree with the series count.
		inf := fmt.Sprintf("progconv_stage_latency_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st, n)
		if !strings.Contains(buf.String(), inf) {
			t.Errorf("%s: histogram lacks %q", st, inf)
		}
	}
	if total != workers*per {
		t.Errorf("total stage-end observations = %d, want %d", total, workers*per)
	}
	seen := map[uint64]bool{}
	for _, ev := range ring.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate event seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if len(seen) != 2*workers*per {
		t.Errorf("ring holds %d events, want %d", len(seen), 2*workers*per)
	}
}

// TestBucketOf: stage-end durations land in the registry's 1µs·4ⁱ
// latency buckets — 0 in the first, 2µs in the 4µs bucket, and an hour
// only in +Inf.
func TestBucketOf(t *testing.T) {
	e, _, reg, _ := newFold(8)
	e.StageEnd("P", obs.StageOptimize, 0)
	e.StageEnd("P", obs.StageOptimize, 2*time.Microsecond)
	e.StageEnd("P", obs.StageOptimize, time.Hour)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	bounds := telemetry.LatencyBuckets()
	last := strconv.FormatFloat(bounds[len(bounds)-1], 'g', -1, 64)
	for _, c := range []struct {
		le   string
		want int // cumulative
	}{
		{"1e-06", 1},
		{"4e-06", 2},
		{last, 2},
		{"+Inf", 3},
	} {
		line := fmt.Sprintf("progconv_stage_latency_seconds_bucket{stage=\"optimize\",le=%q} %d\n", c.le, c.want)
		if !strings.Contains(buf.String(), line) {
			t.Errorf("missing %q in:\n%s", line, buf.String())
		}
	}
}

// TestMetricsString: the -stats stage lines are the stage family's
// summary lines — one per stage, the observed stage with its count and
// an unobserved stage at count=0.
func TestMetricsString(t *testing.T) {
	e, _, _, in := newFold(8)
	timedAttempt(e, "P", obs.StageGenerate, func() {})
	var b strings.Builder
	in.Stage.WriteSummary(&b)
	s := b.String()
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) != len(obs.Stages()) {
		t.Fatalf("summary has %d lines, want %d:\n%s", len(lines), len(obs.Stages()), s)
	}
	for _, c := range []struct {
		stage obs.Stage
		count string
	}{
		{obs.StageGenerate, "count=1 "},
		{obs.StageVerify, "count=0 "},
	} {
		line := lines[c.stage]
		if !strings.Contains(line, fmt.Sprintf("progconv_stage_latency_seconds{stage=%q}", c.stage)) ||
			!strings.Contains(line, c.count) {
			t.Errorf("%s line = %q, want %s", c.stage, line, c.count)
		}
	}
}
