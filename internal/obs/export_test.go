package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"
)

func testTally() *Tally {
	tally := NewTally()
	e := NewEmitter(tally)
	e.Outcome("A", "auto", "r")
	e.Outcome("B", "manual", "r")
	e.Outcome("C", "auto", "r")
	e.Hazard("B", "order-dependence", "m")
	e.Rewrite("A", "get", "EMP")
	e.Rewrite("A", "move", "EMP")
	e.Rewrite("C", "get", "EMP")
	e.Verify("A", true, "ok")
	e.Verify("C", false, "diff")
	return tally
}

func TestTallySnapshot(t *testing.T) {
	snap := testTally().Snapshot()
	want := map[string]int64{
		"programs/auto": 2, "programs/manual": 1,
		"hazards/order-dependence": 1,
		"rewrites/get":             2, "rewrites/move": 1,
		"verifications/pass": 1, "verifications/fail": 1,
		// The data-plane totals are always present, zeros included — a
		// scraper must never see keys appear or vanish between samples.
		"dataplane/index_probes": 0, "dataplane/index_scans": 0,
		"dataplane/migration_fused_steps": 0, "dataplane/migration_stepwise_steps": 0,
		"dataplane/migration_shards": 0, "dataplane/bulk_loaded_records": 0,
	}
	for k, n := range want {
		if snap[k] != n {
			t.Errorf("snapshot[%q] = %d, want %d", k, snap[k], n)
		}
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d keys, want %d: %v", len(snap), len(want), snap)
	}
}

// promLine matches the three legal line shapes of the Prometheus text
// exposition format (comment, labelled sample, bare sample).
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
	`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE.+-]+(Inf)?)$`)

// TestWritePrometheusFormat is the ISSUE's format-lint acceptance
// criterion: every line parses, HELP/TYPE precede their samples, and
// the output ends with a newline.
func TestWritePrometheusFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := testTally().WritePrometheus(&buf); err != nil {
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
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
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

// TestTallyFaultCounters: retry/panic/timeout events fold into the
// faults family, surfaced by Faults(), Snapshot() and the Prometheus
// exporter.
func TestTallyFaultCounters(t *testing.T) {
	tally := NewTally()
	e := NewEmitter(tally)
	e.Retry("A", "analyze", 1, 50*time.Millisecond, "transient: boom")
	e.Retry("B", "generate", 1, 50*time.Millisecond, "transient: boom")
	e.Panic("C", "convert", "injected")
	e.Timeout("D", "analyze", 25*time.Millisecond)
	e.Timeout("E", "program", time.Second)

	faults := tally.Faults()
	for kind, want := range map[string]int64{"retry": 2, "panic": 1, "timeout": 2} {
		if faults[kind] != want {
			t.Errorf("Faults()[%q] = %d, want %d", kind, faults[kind], want)
		}
	}
	snap := tally.Snapshot()
	if snap["faults/retry"] != 2 || snap["faults/panic"] != 1 || snap["faults/timeout"] != 2 {
		t.Errorf("snapshot faults = %v", snap)
	}
	var buf bytes.Buffer
	if err := tally.WritePrometheus(&buf); err != nil {
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
	if (*Tally)(nil).Faults() != nil {
		t.Error("nil tally returned counters")
	}
}

// TestWritePrometheusNilTally: a nil *Tally writes nothing instead of
// panicking.
func TestWritePrometheusNilTally(t *testing.T) {
	var buf bytes.Buffer
	if err := (*Tally)(nil).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil tally wrote %q", buf.String())
	}
}
