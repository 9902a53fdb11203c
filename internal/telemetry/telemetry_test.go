package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"progconv/internal/obs"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := DeriveTraceID("schema-a", "schema-b", "prog")
	sid := DeriveSpanID(tid, "root")
	h := Traceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	gotT, gotS, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gotT != tid || gotS != sid {
		t.Errorf("round trip = (%s, %s), want (%s, %s)", gotT, gotS, tid, sid)
	}
}

// traceparentValid is a well-formed version-00 sampled header.
const traceparentValid = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// traceparentRejects are malformed headers ParseTraceparent must refuse.
var traceparentRejects = map[string]string{
	"empty":          "",
	"short":          "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033-01",
	"bad dashes":     "00x0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331x01",
	"version ff":     "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
	"bad hex":        "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01",
	"zero trace id":  "00-00000000000000000000000000000000-b7ad6b7169203331-01",
	"zero parent id": "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
	"ver00 too long": traceparentValid + "-extra",
	"uppercase hex":  "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
	"ver01 no dash":  "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01xyz",
}

func TestParseTraceparentRejects(t *testing.T) {
	if _, _, err := ParseTraceparent(traceparentValid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	for name, h := range traceparentRejects {
		if _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: %q accepted, want error", name, h)
		}
	}
}

// FuzzParseTraceparent: ParseTraceparent never panics; the IDs of an
// accepted header survive a Traceparent render and re-parse unchanged;
// and an accepted version-00 sampled header is exactly the header
// Traceparent renders for its IDs, byte for byte.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(traceparentValid)
	f.Add(Traceparent(DeriveTraceID("fuzz"), DeriveSpanID(DeriveTraceID("fuzz"), "root")))
	f.Add("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-future")
	for _, h := range traceparentRejects {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		out := Traceparent(tid, sid)
		t2, s2, err := ParseTraceparent(out)
		if err != nil || t2 != tid || s2 != sid {
			t.Fatalf("%q: IDs %s/%s re-parse from %q as %s/%s (%v)", h, tid, sid, out, t2, s2, err)
		}
		if strings.HasPrefix(h, "00-") && strings.HasSuffix(h, "-01") && h != out {
			t.Fatalf("accepted %q renders back as %q", h, out)
		}
	})
}

func TestDeriveIDsDeterministicAndDistinct(t *testing.T) {
	a := DeriveTraceID("x", "y")
	if a != DeriveTraceID("x", "y") {
		t.Error("DeriveTraceID not deterministic")
	}
	if a == DeriveTraceID("x", "z") {
		t.Error("distinct inputs collided")
	}
	// Length-prefixed hashing: ("ab","c") must differ from ("a","bc").
	if DeriveTraceID("ab", "c") == DeriveTraceID("a", "bc") {
		t.Error("part boundaries are ambiguous")
	}
	s1 := DeriveSpanID(a, "event", "P", "0")
	if s1 != DeriveSpanID(a, "event", "P", "0") {
		t.Error("DeriveSpanID not deterministic")
	}
	if s1 == DeriveSpanID(a, "event", "P", "1") {
		t.Error("distinct span paths collided")
	}
	if a.IsZero() || s1.IsZero() {
		t.Error("derived IDs must be non-zero")
	}
}

// synthetic event stream: one program through analyze (with a cache
// miss and a retry), then convert, an accepted decision, a verdict,
// and the outcome. Rewrites consume ordinals but add no spans.
func buildTestTrace(id TraceID) *TraceBuilder {
	b := NewTraceBuilder(id, "test-job")
	b.SetPrograms([]string{"P1"})
	e := obs.NewEmitter(b)
	e.CacheMiss("", "pair", "k1")
	e.StageStart("P1", obs.StageAnalyze)
	e.CacheMiss("P1", "analysis", "k2")
	e.Hazard("P1", "order-dependence", "sort order differs")
	e.StageEnd("P1", obs.StageAnalyze, 5*time.Microsecond)
	e.Retry("P1", "analyze", 1, time.Millisecond, "transient: boom")
	e.StageStart("P1", obs.StageAnalyze)
	e.StageEnd("P1", obs.StageAnalyze, 3*time.Microsecond)
	e.StageStart("P1", obs.StageConvert)
	e.Rewrite("P1", "get", "EMP")
	e.Decision("P1", "order-change", "accepted order change", true)
	e.StageEnd("P1", obs.StageConvert, 7*time.Microsecond)
	e.StageStart("P1", obs.StageVerify)
	e.Verify("P1", true, "outputs equal")
	e.StageEnd("P1", obs.StageVerify, 2*time.Microsecond)
	e.Outcome("P1", "auto", "all statements matched")
	return b
}

func TestTraceBuilderStructure(t *testing.T) {
	id := DeriveTraceID("structure-test")
	tr := buildTestTrace(id).Snapshot()

	root := tr.Root()
	if root.Kind != KindJob || root.Name != "test-job" {
		t.Fatalf("root = %+v, want job span named test-job", root)
	}
	if tr.TraceID != id {
		t.Errorf("TraceID = %s, want %s", tr.TraceID, id)
	}
	// The pair-scoped cache miss hangs off the root.
	shared := tr.ByKind(KindCache)
	if len(shared) != 2 { // pair miss + analysis miss
		t.Fatalf("cache spans = %d, want 2", len(shared))
	}
	if shared[0].Parent != root.ID || shared[0].Label != "miss" || shared[0].Name != "pair" {
		t.Errorf("pair cache span = %+v, want miss/pair under root", shared[0])
	}

	progs := tr.ByKind(KindProgram)
	if len(progs) != 1 || progs[0].Name != "P1" || progs[0].Parent != root.ID {
		t.Fatalf("program spans = %+v", progs)
	}
	if progs[0].Label != "auto" {
		t.Errorf("program label = %q, want auto (from the outcome)", progs[0].Label)
	}

	stages := tr.ByKind(KindStage)
	if len(stages) != 4 {
		t.Fatalf("stage spans = %d, want 4 (analyze x2, convert, verify)", len(stages))
	}
	if stages[0].Stage != "analyze" || stages[0].Attempt != 1 ||
		stages[1].Stage != "analyze" || stages[1].Attempt != 2 {
		t.Errorf("analyze attempts = %+v, %+v", stages[0], stages[1])
	}
	if stages[0].Dur != 5*time.Microsecond {
		t.Errorf("first analyze dur = %v, want 5µs", stages[0].Dur)
	}
	for _, sp := range stages {
		if sp.Parent != progs[0].ID {
			t.Errorf("stage %s attempt %d parented to %s, want program span", sp.Stage, sp.Attempt, sp.Parent)
		}
	}

	// The retry parents to the failed (closed) first analyze attempt.
	retries := tr.ByKind(KindRetry)
	if len(retries) != 1 || retries[0].Parent != stages[0].ID {
		t.Errorf("retry spans = %+v, want one under first analyze attempt", retries)
	}
	// The hazard was found inside the first analyze attempt.
	hazards := tr.ByKind(KindHazard)
	if len(hazards) != 1 || hazards[0].Parent != stages[0].ID {
		t.Errorf("hazard spans = %+v, want one under first analyze attempt", hazards)
	}
	// The verdict lives inside the verify stage attempt.
	verdicts := tr.ByKind(KindVerdict)
	if len(verdicts) != 1 || verdicts[0].Parent != stages[3].ID || verdicts[0].Label != "pass" {
		t.Errorf("verdict spans = %+v", verdicts)
	}
	decisions := tr.ByKind(KindDecision)
	if len(decisions) != 1 || decisions[0].Label != "accepted" || decisions[0].Parent != stages[2].ID {
		t.Errorf("decision spans = %+v", decisions)
	}
	// No rewrite spans — they stay in the event log.
	for _, sp := range tr.Spans {
		if sp.Name == "get" {
			t.Errorf("rewrite leaked into the trace: %+v", sp)
		}
	}
	// Every non-root span's parent exists.
	ids := map[SpanID]bool{}
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range tr.Spans[1:] {
		if !ids[sp.Parent] {
			t.Errorf("span %s (%s) has unknown parent %s", sp.ID, sp.Name, sp.Parent)
		}
	}
}

func TestTraceBuilderDeterministicIDs(t *testing.T) {
	id := DeriveTraceID("determinism-test")
	a, b := buildTestTrace(id).Snapshot(), buildTestTrace(id).Snapshot()
	if len(a.Spans) != len(b.Spans) {
		t.Fatalf("span counts differ: %d vs %d", len(a.Spans), len(b.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i].ID != b.Spans[i].ID || a.Spans[i].Parent != b.Spans[i].Parent {
			t.Errorf("span %d differs: %+v vs %+v", i, a.Spans[i], b.Spans[i])
		}
	}
}

func TestTraceBuilderRemoteParent(t *testing.T) {
	id := DeriveTraceID("remote-test")
	b := NewTraceBuilder(id, "j")
	remote := DeriveSpanID(id, "caller")
	b.SetRemoteParent(remote)
	tr := b.Snapshot()
	if tr.Remote != remote {
		t.Errorf("Remote = %s, want %s", tr.Remote, remote)
	}
	if tr.Root().Parent != remote {
		t.Errorf("root parent = %s, want the remote span", tr.Root().Parent)
	}
}

func TestRegistryWritePrometheus(t *testing.T) {
	r := NewRegistry()
	in := NewInstruments(r)
	in.JobDur.ObserveDuration("", 3*time.Millisecond)
	in.Stage.ObserveDuration("analyze", 5*time.Microsecond)
	in.ObserveDataPlane(obs.DataPlane{IndexProbes: 12, IndexScans: 2})
	r.Gauge("progconv_test_gauge", "A test gauge.", func() float64 { return 7 })
	// Counter series render sorted by label, not in first-Add order.
	c := r.Counters("progconv_test_total", "A test counter.", "k")
	c.Add("b", 2)
	c.Add("a", 1)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		// Zero-count series export unconditionally.
		`progconv_queue_wait_seconds_count 0`,
		`progconv_job_duration_seconds_count 1`,
		`progconv_stage_latency_seconds_bucket{stage="analyze",le="1e-06"} 0`,
		`progconv_stage_latency_seconds_bucket{stage="analyze",le="6.4e-05"} 1`,
		`progconv_stage_latency_seconds_count{stage="convert"} 0`,
		`progconv_stage_latency_seconds_count{stage="verify"} 0`,
		`progconv_dataplane_probe_count_bucket{op="probe",le="16"} 1`,
		`progconv_dataplane_probe_count_sum{op="probe"} 12`,
		"# TYPE progconv_queue_wait_seconds histogram",
		"# TYPE progconv_test_gauge gauge",
		"progconv_test_gauge 7",
		"progconv_index_probes_total 12",
		"progconv_index_scans_total 2",
		"# TYPE progconv_test_total counter\n" +
			`progconv_test_total{k="a"} 1` + "\n" +
			`progconv_test_total{k="b"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exactly 4 histogram families.
	if n := strings.Count(out, " histogram\n"); n != 4 {
		t.Errorf("histogram families = %d, want 4", n)
	}
	// Byte-stable across scrapes with no new observations.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two scrapes of an idle registry differ")
	}
}

// promLine matches the three legal line shapes of the Prometheus text
// exposition format (comment, labelled sample, bare sample).
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
	`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE.+-]+(Inf)?)$`)

// testInstruments folds a small event stream into a fresh registry.
func testInstruments() (*Registry, *Instruments) {
	r := NewRegistry()
	in := NewInstruments(r)
	e := obs.NewEmitter(in)
	e.Outcome("A", "auto", "r")
	e.Outcome("B", "manual", "r")
	e.Outcome("C", "auto", "r")
	e.Hazard("B", "order-dependence", "m")
	e.Rewrite("A", "get", "EMP")
	e.Rewrite("A", "move", "EMP")
	e.Rewrite("C", "get", "EMP")
	e.Verify("A", true, "ok")
	e.Verify("C", false, "diff")
	return r, in
}

// TestWritePrometheusFormat lints the whole exposition: every line
// parses, HELP/TYPE precede their samples, no family is declared
// twice, and the output ends with a newline.
func TestWritePrometheusFormat(t *testing.T) {
	r, _ := testInstruments()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("output does not end with a newline")
	}
	typed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("line %d fails format lint: %q", i+1, line)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			if typed[name] {
				t.Errorf("line %d: family %q declared twice", i+1, name)
			}
			typed[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		declared := typed[name]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			declared = declared || typed[strings.TrimSuffix(name, suffix)]
		}
		if !declared {
			t.Errorf("line %d: sample %q precedes its # TYPE", i+1, name)
		}
	}
	for _, want := range []string{
		`progconv_programs_total{disposition="auto"} 2`,
		`progconv_hazards_total{kind="order-dependence"} 1`,
		`progconv_dml_rewrites_total{verb="get"} 2`,
		`progconv_verifications_total{result="pass"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestInstrumentsFaultCounters: retry/panic/timeout events fold into
// the faults family, surfaced by Faults.Get and the exposition.
func TestInstrumentsFaultCounters(t *testing.T) {
	r := NewRegistry()
	in := NewInstruments(r)
	e := obs.NewEmitter(in)
	e.Retry("A", "analyze", 1, 50*time.Millisecond, "transient: boom")
	e.Retry("B", "generate", 1, 50*time.Millisecond, "transient: boom")
	e.Panic("C", "convert", "injected")
	e.Timeout("D", "analyze", 25*time.Millisecond)
	e.Timeout("E", "program", time.Second)

	for kind, want := range map[string]int64{"retry": 2, "panic": 1, "timeout": 2} {
		if got := in.Faults.Get(kind); got != want {
			t.Errorf("Faults.Get(%q) = %d, want %d", kind, got, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`progconv_faults_total{kind="retry"} 2`,
		`progconv_faults_total{kind="panic"} 1`,
		`progconv_faults_total{kind="timeout"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestInstrumentsZerosBeforeTraffic: the fault series and the six
// data-plane counters export as zeros before any event or report, so
// rate() and alerts see a series from the first scrape.
func TestInstrumentsZerosBeforeTraffic(t *testing.T) {
	r := NewRegistry()
	NewInstruments(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`progconv_faults_total{kind="panic"} 0`,
		`progconv_faults_total{kind="retry"} 0`,
		`progconv_faults_total{kind="timeout"} 0`,
		"progconv_index_probes_total 0",
		"progconv_index_scans_total 0",
		"progconv_migration_fused_steps_total 0",
		"progconv_migration_stepwise_steps_total 0",
		"progconv_migration_shards_total 0",
		"progconv_bulk_loaded_records_total 0",
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("fresh registry missing %q:\n%s", want, buf.String())
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	f := r.Family("edges", "h", "", LatencyBuckets())
	f.Observe("", 1e-6) // exactly on the first bound: le is inclusive
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `edges_bucket{le="1e-06"} 1`) {
		t.Errorf("boundary observation not in its bucket:\n%s", buf.String())
	}
	// Between bounds: the next 1µs·4ⁱ bucket up (2µs → le 4µs).
	f.ObserveDuration("", 2*time.Microsecond)
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `edges_bucket{le="1e-06"} 1`) ||
		!strings.Contains(buf.String(), `edges_bucket{le="4e-06"} 2`) {
		t.Errorf("2µs observation not in the 4µs bucket:\n%s", buf.String())
	}
	// Above the last finite bound: only +Inf.
	f2 := r.Family("over", "h", "", CountBuckets())
	f2.Observe("", 1e9)
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `over_bucket{le="262144"} 0`) || !strings.Contains(out, `over_bucket{le="+Inf"} 1`) {
		t.Errorf("overflow observation mishandled:\n%s", out)
	}
}

// TestInstrumentsStageSummary: stage-end events fold into the stage
// histogram per stage (count, sum), and Family.WriteSummary renders one
// line per stage — unobserved stages at count=0 — identical to the
// stage lines of the registry-wide /statusz summary.
func TestInstrumentsStageSummary(t *testing.T) {
	r := NewRegistry()
	in := NewInstruments(r)
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		in.Emit(obs.Event{Kind: obs.EvStageEnd, Stage: obs.StageConvert, Dur: d})
	}
	in.Emit(obs.Event{Kind: obs.EvStageEnd, Stage: obs.StageAnalyze, Dur: 4 * time.Microsecond})
	in.Emit(obs.Event{Kind: obs.EvStageStart, Stage: obs.StageVerify})
	if n, sum := in.Stage.Count("convert"), in.Stage.Sum("convert"); n != 3 || math.Abs(sum-0.006) > 1e-12 {
		t.Errorf("convert count/sum = %d/%g, want 3/0.006", n, sum)
	}
	if n, sum := in.Stage.Count("verify"), in.Stage.Sum("verify"); n != 0 || sum != 0 {
		t.Errorf("verify count/sum = %d/%g, want 0/0 (no stage-end)", n, sum)
	}
	if sum := in.Stage.Sum("no-such-stage"); sum != 0 {
		t.Errorf("absent series sum = %g", sum)
	}

	var fam, all strings.Builder
	in.Stage.WriteSummary(&fam)
	r.WriteSummary(&all)
	lines := strings.Split(strings.TrimSuffix(fam.String(), "\n"), "\n")
	if len(lines) != len(obs.Stages()) {
		t.Fatalf("summary has %d lines, want one per stage:\n%s", len(lines), fam.String())
	}
	for i, st := range obs.Stages() {
		if want := fmt.Sprintf("progconv_stage_latency_seconds{stage=%q}", st); !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want series %s", i, lines[i], want)
		}
	}
	for _, want := range []string{"count=3 mean=0.002 max=0.003", "count=1 mean=4e-06 max=4e-06"} {
		if !strings.Contains(fam.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, fam.String())
		}
	}
	if !strings.Contains(lines[4], "count=0 mean=0 max=0") {
		t.Errorf("unobserved verify line = %q", lines[4])
	}
	if !strings.Contains(all.String(), fam.String()) {
		t.Errorf("registry summary lacks the family's lines:\n%s", all.String())
	}
}

func TestDebugMuxAndStatusz(t *testing.T) {
	r := NewRegistry()
	NewInstruments(r)
	metrics := httptest.NewServer(DebugMux(
		writeHandler(func(w *bytes.Buffer) { r.WritePrometheus(w) }),
		StatuszHandler(time.Now(), StatusSection{
			Title: "histograms",
			Write: func(w io.Writer) { r.WriteSummary(w) },
		}),
	))
	defer metrics.Close()

	for path, want := range map[string]string{
		"/metrics":      "progconv_queue_wait_seconds",
		"/statusz":      "histograms",
		"/debug/vars":   "cmdline",
		"/debug/pprof/": "goroutine",
		"/":             "== process ==", // the root serves the statusz snapshot
	} {
		res, err := metrics.Client().Get(metrics.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, res.StatusCode)
			continue
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s missing %q:\n%.400s", path, want, body)
		}
	}
}

// writeHandler adapts a buffer-writing function to http.Handler.
func writeHandler(fn func(*bytes.Buffer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		fn(&buf)
		w.Write(buf.Bytes())
	})
}

func TestWriteChromeTraceFromSpans(t *testing.T) {
	id := DeriveTraceID("chrome-test")
	tr := buildTestTrace(id).Snapshot()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	// job + program + 4 stage attempts are complete events; the two
	// cache probes, hazard, retry, decision and verdict are instants.
	if complete != 6 {
		t.Errorf("complete events = %d, want 6", complete)
	}
	if instant != 6 {
		t.Errorf("instant events = %d, want 6", instant)
	}
	// Nil trace stays valid JSON.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Errorf("nil trace invalid: %v", err)
	}
}
