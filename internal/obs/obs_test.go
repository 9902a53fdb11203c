package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanAccumulation(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("P1", StageConvert)
		time.Sleep(time.Millisecond)
		sp.End()
	}
	sp := r.StartSpan("P2", StageAnalyze)
	sp.End()

	m := r.Snapshot()
	if m.Programs != 2 {
		t.Errorf("programs = %d, want 2", m.Programs)
	}
	conv := m.Stage(StageConvert)
	if conv.Count != 3 {
		t.Errorf("convert count = %d, want 3", conv.Count)
	}
	if conv.Total < 3*time.Millisecond {
		t.Errorf("convert total = %v, want >= 3ms", conv.Total)
	}
	if conv.Min == 0 || conv.Max < conv.Min || conv.Mean() < conv.Min || conv.Mean() > conv.Max {
		t.Errorf("min/mean/max inconsistent: %v/%v/%v", conv.Min, conv.Mean(), conv.Max)
	}
	if got := m.Stage(StageVerify).Count; got != 0 {
		t.Errorf("verify count = %d, want 0", got)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	sp := r.StartSpan("X", StageVerify)
	if d := sp.End(); d != 0 { // must not panic
		t.Errorf("nil-recorder span duration = %v, want 0", d)
	}
	(ActiveSpan{}).End() // the zero-value span is equally inert
	if r.Snapshot() != nil {
		t.Error("nil recorder should return nil summaries")
	}
}

func TestConcurrentSpans(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := r.StartSpan("P", Stage(i%int(numStages)))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	m := r.Snapshot()
	var total int64
	for _, st := range m.ByStage {
		total += st.Count
		var hist int64
		for _, b := range st.Buckets {
			hist += b
		}
		if hist != st.Count {
			t.Errorf("%s: histogram sums %d, count %d", st.Stage, hist, st.Count)
		}
	}
	if total != workers*per {
		t.Errorf("total spans = %d, want %d", total, workers*per)
	}
}

func TestBucketOf(t *testing.T) {
	if b := bucketOf(0); b != 0 {
		t.Errorf("bucketOf(0) = %d", b)
	}
	if b := bucketOf(2 * time.Microsecond); b != 1 {
		t.Errorf("bucketOf(2µs) = %d", b)
	}
	if b := bucketOf(time.Hour); b != numBuckets-1 {
		t.Errorf("bucketOf(1h) = %d", b)
	}
}

func TestMetricsString(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan("P", StageGenerate)
	sp.End()
	s := r.Snapshot().String()
	for _, want := range []string{"STAGE TIMINGS", "generate", "histogram",
		"histogram buckets: 1µs·4ⁱ"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "verify") {
		t.Errorf("empty stage rendered:\n%s", s)
	}
}

func TestStageString(t *testing.T) {
	if StageOptimize.String() != "optimize" {
		t.Errorf("optimize = %q", StageOptimize)
	}
	if got := Stage(200).String(); got != "stage(200)" {
		t.Errorf("unknown stage = %q", got)
	}
	if len(Stages()) != int(numStages) {
		t.Errorf("Stages() = %v", Stages())
	}
}
