package telemetry

// Histogram instruments, counters and gauges with the one Prometheus
// text exporter in the repository, and the standard Instruments set
// every front end registers. Bucket boundaries are fixed at
// construction — a deterministic 1µs·4ⁱ geometry for latencies — and
// every registered series is rendered unconditionally (zero counts
// included), so scrapers never see series appear, disappear, or shift
// buckets between scrapes.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"progconv/internal/obs"
)

// LatencyBuckets returns the standard duration boundaries in seconds:
// 1µs·4ⁱ for i in [0, 16) — 1µs, 4µs, 16µs, … ~1074s — below +Inf.
func LatencyBuckets() []float64 {
	out := make([]float64, 16)
	b := 1e-6
	for i := range out {
		out[i] = b
		b *= 4
	}
	return out
}

// CountBuckets returns the standard count boundaries: 4ⁱ for i in
// [0, 10) — 1, 4, 16, … 262144 — for per-job data-plane work counts.
func CountBuckets() []float64 {
	out := make([]float64, 10)
	b := 1.0
	for i := range out {
		out[i] = b
		b *= 4
	}
	return out
}

// series is one labeled histogram time series.
type series struct {
	label   string
	buckets []int64 // finite buckets; observations above the last bound
	sum     float64 // and the count make the implicit +Inf bucket
	count   int64
	max     float64
}

// Family is one histogram metric family: fixed bucket boundaries, any
// number of labeled series. Safe for concurrent Observe.
type Family struct {
	name, help, labelKey string
	bounds               []float64

	mu      sync.Mutex
	series  []*series
	byLabel map[string]*series
}

// Observe records one value into the labeled series, creating it on
// first use (pre-register scrape-critical labels at Family time so
// they export as zeros before the first observation). The label is ""
// for label-free families.
func (f *Family) Observe(label string, v float64) {
	f.mu.Lock()
	s := f.byLabel[label]
	if s == nil {
		s = f.register(label)
	}
	s.count++
	s.sum += v
	if v > s.max {
		s.max = v
	}
	for i, b := range f.bounds {
		if v <= b {
			s.buckets[i]++
			break
		}
	}
	f.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (f *Family) ObserveDuration(label string, d time.Duration) {
	f.Observe(label, d.Seconds())
}

// register adds a series; the caller holds f.mu (or is Registry.Family
// before the family is published).
func (f *Family) register(label string) *series {
	s := &series{label: label, buckets: make([]int64, len(f.bounds))}
	f.series = append(f.series, s)
	f.byLabel[label] = s
	return s
}

// Count returns one series' observation count (0 when absent).
func (f *Family) Count(label string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.byLabel[label]; s != nil {
		return s.count
	}
	return 0
}

// Sum returns one series' sum of observed values (0 when absent).
func (f *Family) Sum(label string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.byLabel[label]; s != nil {
		return s.sum
	}
	return 0
}

// gauge is one callback-valued gauge metric.
type gauge struct {
	name, help string
	fn         func() float64
}

// Counters is one counter metric family: any number of labeled
// monotonic series, created on first Add or pre-registered so they
// export as zeros. Series render sorted by label, so the exposition
// does not depend on the order labels first appeared in. Safe for
// concurrent use.
type Counters struct {
	name, help, labelKey string

	mu     sync.Mutex
	counts map[string]int64
}

// Add increments the labeled series by delta, creating it on first
// use. The label is "" for label-free counters.
func (c *Counters) Add(label string, delta int64) {
	c.mu.Lock()
	c.counts[label] += delta
	c.mu.Unlock()
}

// Get returns one series' current value (0 when absent).
func (c *Counters) Get(label string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[label]
}

// counterSample is one series' value at snapshot time.
type counterSample struct {
	label string
	n     int64
}

// snapshot copies the series, sorted by label.
func (c *Counters) snapshot() []counterSample {
	c.mu.Lock()
	out := make([]counterSample, 0, len(c.counts))
	for l, n := range c.counts {
		out = append(out, counterSample{l, n})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// selector renders one series' label set ("" for label-free counters).
func (c *Counters) selector(label string) string {
	if c.labelKey == "" {
		return ""
	}
	return fmt.Sprintf("{%s=%q}", c.labelKey, label)
}

func (c *Counters) writePrometheus(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name); err != nil {
		return err
	}
	for _, s := range c.snapshot() {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.name, c.selector(s.label), s.n); err != nil {
			return err
		}
	}
	return nil
}

// Registry holds an instrument set for one process: histogram
// families, counter families and gauges, rendered together by
// WritePrometheus. Families, counters and gauges render in
// registration order; histogram series render in label-registration
// order and counter series sorted by label, so the exposition is
// byte-stable for a deterministic observation sequence.
type Registry struct {
	mu       sync.Mutex
	families []*Family
	counters []*Counters
	gauges   []gauge
}

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry { return &Registry{} }

// Family registers a histogram family. labelKey is the label
// dimension ("" for a label-free family); bounds are the finite bucket
// upper bounds in ascending order; labels pre-registers series so they
// export before their first observation.
func (r *Registry) Family(name, help, labelKey string, bounds []float64, labels ...string) *Family {
	f := &Family{
		name: name, help: help, labelKey: labelKey,
		bounds:  append([]float64(nil), bounds...),
		byLabel: map[string]*series{},
	}
	if len(labels) == 0 && labelKey == "" {
		labels = []string{""}
	}
	for _, l := range labels {
		f.register(l)
	}
	r.mu.Lock()
	r.families = append(r.families, f)
	r.mu.Unlock()
	return f
}

// Counters registers a counter family. labelKey is the label
// dimension ("" for a label-free counter); labels pre-registers series
// so they export as zeros before their first Add.
func (r *Registry) Counters(name, help, labelKey string, labels ...string) *Counters {
	c := &Counters{name: name, help: help, labelKey: labelKey, counts: map[string]int64{}}
	if len(labels) == 0 && labelKey == "" {
		labels = []string{""}
	}
	for _, l := range labels {
		c.counts[l] = 0
	}
	r.mu.Lock()
	r.counters = append(r.counters, c)
	r.mu.Unlock()
	return c
}

// Gauge registers a callback-valued gauge, sampled at scrape time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.mu.Lock()
	r.gauges = append(r.gauges, gauge{name, help, fn})
	r.mu.Unlock()
}

// snapshotFamilies copies the family list so rendering never holds the
// registry lock while calling into family locks.
func (r *Registry) snapshotFamilies() ([]*Family, []*Counters, []gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Family(nil), r.families...),
		append([]*Counters(nil), r.counters...),
		append([]gauge(nil), r.gauges...)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every registered family and gauge in
// Prometheus text exposition format. All registered series are written
// unconditionally — including zero-count ones — so no time series ever
// disappears between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	families, counters, gauges := r.snapshotFamilies()
	for _, f := range families {
		if err := f.writePrometheus(w); err != nil {
			return err
		}
	}
	for _, c := range counters {
		if err := c.writePrometheus(w); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			g.name, g.help, g.name, g.name, formatFloat(g.fn())); err != nil {
			return err
		}
	}
	return nil
}

func (f *Family) writePrometheus(w io.Writer) error {
	f.mu.Lock()
	type snap struct {
		label   string
		buckets []int64
		sum     float64
		count   int64
	}
	snaps := make([]snap, 0, len(f.series))
	for _, s := range f.series {
		snaps = append(snaps, snap{s.label, append([]int64(nil), s.buckets...), s.sum, s.count})
	}
	f.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", f.name, f.help, f.name); err != nil {
		return err
	}
	for _, s := range snaps {
		sel := func(le string) string {
			if f.labelKey == "" {
				return fmt.Sprintf("{le=%q}", le)
			}
			return fmt.Sprintf("{%s=%q,le=%q}", f.labelKey, s.label, le)
		}
		plain := ""
		if f.labelKey != "" {
			plain = fmt.Sprintf("{%s=%q}", f.labelKey, s.label)
		}
		var cum int64
		for i, b := range f.bounds {
			cum += s.buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, sel(formatFloat(b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, sel("+Inf"), s.count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, plain, formatFloat(s.sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, plain, s.count); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders one human-readable line per series — the
// /statusz histogram section.
func (r *Registry) WriteSummary(w io.Writer) {
	families, counters, gauges := r.snapshotFamilies()
	for _, f := range families {
		f.WriteSummary(w)
	}
	for _, c := range counters {
		for _, s := range c.snapshot() {
			fmt.Fprintf(w, "  %-60s value=%d\n", c.name+c.selector(s.label), s.n)
		}
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "  %-60s value=%s\n", g.name, formatFloat(g.fn()))
	}
}

// WriteSummary renders one human-readable line per series of the
// family, in label-registration order — the lines of the /statusz
// histogram section and of `progconv convert -stats`.
func (f *Family) WriteSummary(w io.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		name := f.name
		if f.labelKey != "" {
			name = fmt.Sprintf("%s{%s=%q}", f.name, f.labelKey, s.label)
		}
		mean := 0.0
		if s.count > 0 {
			mean = s.sum / float64(s.count)
		}
		fmt.Fprintf(w, "  %-60s count=%d mean=%s max=%s\n",
			name, s.count, formatFloat(mean), formatFloat(s.max))
	}
}

// Instruments is the standard progconv instrument set, registered
// identically by the daemon and the CLI so dashboards work against
// either front end. It is also an obs.Sink: installed on a run's event
// stream, it folds stage-end events into the stage histogram and
// outcome, hazard, rewrite, verification, fault and cache events into
// the counter families.
type Instruments struct {
	// QueueWait is the admission-queue wait per job (daemon only; the
	// CLI has no queue and leaves it at zero).
	QueueWait *Family
	// JobDur is end-to-end job latency, runner pickup to report.
	JobDur *Family
	// Stage is per-program stage-attempt latency by stage name, fed
	// from stage-end events.
	Stage *Family
	// Probes is the per-job data-plane FIND work count by resolution
	// ("probe" = exact-key index probe, "scan" = full occurrence scan).
	Probes *Family

	// The event-derived counters, each keyed by the event's label —
	// except Faults, keyed by event kind ("retry", "panic", "timeout"),
	// the numbers chaos tests reconcile against the injected fault plan.
	Programs, Hazards, Rewrites, Verifications, Faults *Counters
	CacheHits, CacheMisses, CacheEvictions             *Counters

	// dataPlane holds the label-free report totals, in dataPlaneFamilies
	// order; ObserveDataPlane adds to them.
	dataPlane [len(dataPlaneFamilies)]*Counters
}

// dataPlaneFamilies names the label-free data-plane counters.
var dataPlaneFamilies = [...]struct{ name, help string }{
	{"progconv_index_probes_total", "FIND requests answered by an exact-key index probe."},
	{"progconv_index_scans_total", "FIND requests answered by a full occurrence scan."},
	{"progconv_migration_fused_steps_total", "Migration steps executed inside fused single-pass runs."},
	{"progconv_migration_stepwise_steps_total", "Migration steps executed as their own full-database pass."},
	{"progconv_migration_shards_total", "Shards the sharded migration rebuild passes fanned out into."},
	{"progconv_bulk_loaded_records_total", "Records inserted through the bulk-load merge phase."},
}

// NewInstruments registers the standard families on r. Stage series
// are pre-registered for every pipeline stage, and fault series for
// every fault kind, so they export from the first scrape.
func NewInstruments(r *Registry) *Instruments {
	stages := make([]string, 0, len(obs.Stages()))
	for _, st := range obs.Stages() {
		stages = append(stages, st.String())
	}
	in := &Instruments{
		QueueWait: r.Family("progconv_queue_wait_seconds",
			"Time a job waited in the admission queue before a runner picked it up.",
			"", LatencyBuckets()),
		JobDur: r.Family("progconv_job_duration_seconds",
			"End-to-end job latency from runner pickup to finished report.",
			"", LatencyBuckets()),
		Stage: r.Family("progconv_stage_latency_seconds",
			"Per-program pipeline stage attempt latency.",
			"stage", LatencyBuckets(), stages...),
		Probes: r.Family("progconv_dataplane_probe_count",
			"Per-job data-plane FIND lookups by resolution (index probe vs full scan).",
			"op", CountBuckets(), "probe", "scan"),
		Programs:      r.Counters("progconv_programs_total", "Programs by conversion disposition.", "disposition"),
		Hazards:       r.Counters("progconv_hazards_total", "Hazard findings by kind.", "kind"),
		Rewrites:      r.Counters("progconv_dml_rewrites_total", "DML statements rewritten by verb.", "verb"),
		Verifications: r.Counters("progconv_verifications_total", "Equivalence verdicts by result.", "result"),
		Faults: r.Counters("progconv_faults_total", "Resilience faults by kind (retry, panic, timeout).", "kind",
			obs.EvRetry.String(), obs.EvPanic.String(), obs.EvTimeout.String()),
		CacheHits:      r.Counters("progconv_cache_hits_total", "Conversion-cache hits by scope.", "scope"),
		CacheMisses:    r.Counters("progconv_cache_misses_total", "Conversion-cache misses by scope.", "scope"),
		CacheEvictions: r.Counters("progconv_cache_evictions_total", "Conversion-cache LRU evictions by scope.", "scope"),
	}
	for i, f := range dataPlaneFamilies {
		in.dataPlane[i] = r.Counters(f.name, f.help, "")
	}
	return in
}

// Emit implements obs.Sink; compose it with the run's other sinks via
// MultiSink.
func (in *Instruments) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.EvStageEnd:
		in.Stage.ObserveDuration(ev.Stage.String(), ev.Dur)
	case obs.EvOutcome:
		in.Programs.Add(ev.Label, 1)
	case obs.EvHazard:
		in.Hazards.Add(ev.Label, 1)
	case obs.EvRewrite:
		in.Rewrites.Add(ev.Label, 1)
	case obs.EvVerify:
		in.Verifications.Add(ev.Label, 1)
	case obs.EvRetry, obs.EvPanic, obs.EvTimeout:
		in.Faults.Add(ev.Kind.String(), 1)
	case obs.EvCacheHit:
		in.CacheHits.Add(ev.Label, 1)
	case obs.EvCacheMiss:
		in.CacheMisses.Add(ev.Label, 1)
	case obs.EvCacheEvict:
		in.CacheEvictions.Add(ev.Label, 1)
	}
}

// ObserveDataPlane records one finished job's data-plane counters: the
// per-job probe/scan histogram and the running totals.
func (in *Instruments) ObserveDataPlane(dp obs.DataPlane) {
	in.Probes.Observe("probe", float64(dp.IndexProbes))
	in.Probes.Observe("scan", float64(dp.IndexScans))
	for i, n := range [len(dataPlaneFamilies)]int64{dp.IndexProbes, dp.IndexScans, dp.FusedSteps,
		dp.StepwiseSteps, dp.MigrationShards, dp.BulkLoadedRecords} {
		in.dataPlane[i].Add("", n)
	}
}
