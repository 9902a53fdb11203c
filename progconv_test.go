package progconv

// Public-facade tests: the properties Convert promises to external
// callers — deterministic reports at any parallelism, prompt typed
// cancellation, and data-race freedom under `go test -race`.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"progconv/internal/analyzer"
	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/obs"
	"progconv/internal/schema"
	"progconv/internal/telemetry"
)

func corpusPrograms(t *testing.T) []*Program {
	t.Helper()
	members, err := corpus.Programs(corpus.PeriodProfile(42))
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]*Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	return progs
}

// TestConvertParallelCorpus drives the EXP-C1 corpus through the public
// facade on the default (GOMAXPROCS-sized) worker pool, once through
// Convert and once through ConvertJobs. Run under `go test -race` this
// is the framework's data-race acceptance test. It also checks that the
// two folds of the stage-end durations — the trace's stage spans and
// the registry's stage histogram — agree per stage, and that WithMetrics
// timed every attempt.
func TestConvertParallelCorpus(t *testing.T) {
	progs := corpusPrograms(t)
	for _, facade := range []string{"Convert", "ConvertJobs"} {
		t.Run(facade, func(t *testing.T) {
			db := corpus.Database(corpus.PeriodProfile(42))
			reg := telemetry.NewRegistry()
			inst := telemetry.NewInstruments(reg)
			tb := NewTraceBuilder(DeriveTraceID("parallel-corpus", facade), "convert")
			opts := []Option{WithMetrics(), WithTraceSink(tb), WithEventSink(inst)}
			var report *Report
			var err error
			if facade == "Convert" {
				report, err = Convert(context.Background(), schema.CompanyV1(), nil, figurePlan(), progs,
					append(opts, WithVerifyDB(db))...)
			} else {
				var reports []*Report
				reports, err = ConvertJobs(context.Background(), []Job{{Src: schema.CompanyV1(),
					Plan: figurePlan(), DB: db, Programs: progs}}, opts...)
				if err == nil {
					report = reports[0]
					report.Trace = tb.Snapshot()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			checkParallelCorpus(t, report, progs, reg, inst)
		})
	}
}

func checkParallelCorpus(t *testing.T, report *Report, progs []*Program,
	reg *telemetry.Registry, inst *telemetry.Instruments) {
	t.Helper()
	if len(report.Outcomes) != len(progs) {
		t.Fatalf("outcomes = %d, want %d", len(report.Outcomes), len(progs))
	}
	for i, o := range report.Outcomes {
		if o.Name != progs[i].Name {
			t.Fatalf("outcome %d is %s, want %s: submission order lost", i, o.Name, progs[i].Name)
		}
	}
	auto, _, _ := report.Counts()
	if auto == 0 {
		t.Error("no automatic conversions over the period corpus")
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	spanN := map[string]int64{}
	spanDur := map[string]time.Duration{}
	for _, sp := range report.Trace.Spans {
		if sp.Kind == SpanStage {
			if sp.Dur <= 0 {
				t.Errorf("%s %s: attempt timed at %v under WithMetrics", sp.Prog, sp.Stage, sp.Dur)
			}
			spanN[sp.Stage]++
			spanDur[sp.Stage] += sp.Dur
		}
	}
	for _, st := range []string{"analyze", "convert", "verify"} {
		if spanN[st] == 0 {
			t.Errorf("%s: no stage spans", st)
		}
	}
	for _, st := range obs.Stages() {
		name := st.String()
		if n := inst.Stage.Count(name); n != spanN[name] {
			t.Errorf("%s: registry count %d, trace %d spans", name, n, spanN[name])
		}
		sum := promSample(t, expo.String(), fmt.Sprintf("progconv_stage_latency_seconds_sum{stage=%q}", name))
		if want := spanDur[name].Seconds(); math.Abs(sum-want) > 1e-9*math.Max(math.Abs(sum), math.Abs(want)) {
			t.Errorf("%s: registry sum %gs, trace spans %gs", name, sum, want)
		}
	}
}

// promSample returns the value of the exposition sample named series.
func promSample(t *testing.T, expo, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no %s sample", series)
	return 0
}

// TestConvertDeterministicAcrossParallelism: a serial run and an
// 8-worker run over the seeded EXP-C1 corpus render byte-identical
// reports (the ISSUE's determinism acceptance criterion).
func TestConvertDeterministicAcrossParallelism(t *testing.T) {
	progs := corpusPrograms(t)
	run := func(workers int) string {
		report, err := Convert(context.Background(), schema.CompanyV1(), nil, figurePlan(), progs,
			WithParallelism(workers), WithVerifyDB(corpus.Database(corpus.PeriodProfile(42))))
		if err != nil {
			t.Fatal(err)
		}
		return report.String()
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Errorf("serial and 8-way reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// cancelingAnalyst cancels the batch the first time the supervisor
// consults it, simulating an operator abort mid-inventory.
type cancelingAnalyst struct{ cancel context.CancelFunc }

func (a cancelingAnalyst) Decide(string, analyzer.Issue) bool {
	a.cancel()
	return false
}

// TestConvertCanceledMidBatch: cancellation during a parallel run
// surfaces promptly as ErrCanceled (also matching context.Canceled),
// not as a partial report.
func TestConvertCanceledMidBatch(t *testing.T) {
	progs := corpusPrograms(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	report, err := Convert(ctx, schema.CompanyV1(), nil, figurePlan(), progs,
		WithAnalyst(cancelingAnalyst{cancel}))
	if report != nil {
		t.Error("canceled run must not return a report")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// TestFacadeHelpersRoundTrip: ParseProgram/FormatProgram and
// ParseNetworkSchema/Classify compose through the exported aliases.
func TestFacadeHelpersRoundTrip(t *testing.T) {
	p, err := ParseProgram(`PROGRAM T DIALECT NETWORK. PRINT 'X'. END PROGRAM.`)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseProgram(FormatProgram(p))
	if err != nil || back.Name != "T" {
		t.Fatalf("round trip: %v, %+v", err, back)
	}
	src := schema.CompanyV1()
	sch, err := ParseNetworkSchema(src.DDL())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Classify(sch, schema.CompanyV2())
	if err != nil || len(plan.Steps) == 0 {
		t.Fatalf("classify: %v, %+v", err, plan)
	}
	var _ *dbprog.Program = p // alias identity: Program IS dbprog.Program
}
