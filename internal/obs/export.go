package obs

// The Tally counter sink and its Prometheus text-format exposition.

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Tally is a Sink that folds the event stream into counters: programs
// by disposition, hazard findings by kind, DML rewrites by verb,
// verification verdicts, and resilience faults (retries, recovered
// panics, expired budgets) by kind. It is the data source for the
// Prometheus exporter and the expvar debug endpoint.
type Tally struct {
	mu           sync.Mutex
	dispositions map[string]int64
	hazards      map[string]int64
	rewrites     map[string]int64
	verdicts     map[string]int64
	faults       map[string]int64
	cacheHits    map[string]int64
	cacheMisses  map[string]int64
	cacheEvicts  map[string]int64
	// dataplane holds report-level counters folded in via AddDataPlane
	// (not event-derived: reports carry totals, the stream carries
	// occurrences).
	dataplane DataPlane
}

// NewTally returns an empty counter collector.
func NewTally() *Tally {
	return &Tally{
		dispositions: map[string]int64{},
		hazards:      map[string]int64{},
		rewrites:     map[string]int64{},
		verdicts:     map[string]int64{},
		faults:       map[string]int64{},
		cacheHits:    map[string]int64{},
		cacheMisses:  map[string]int64{},
		cacheEvicts:  map[string]int64{},
	}
}

// Emit implements Sink.
func (t *Tally) Emit(ev Event) {
	t.mu.Lock()
	switch ev.Kind {
	case EvOutcome:
		t.dispositions[ev.Label]++
	case EvHazard:
		t.hazards[ev.Label]++
	case EvRewrite:
		t.rewrites[ev.Label]++
	case EvVerify:
		t.verdicts[ev.Label]++
	case EvRetry, EvPanic, EvTimeout:
		t.faults[ev.Kind.String()]++
	case EvCacheHit:
		t.cacheHits[ev.Label]++
	case EvCacheMiss:
		t.cacheMisses[ev.Label]++
	case EvCacheEvict:
		t.cacheEvicts[ev.Label]++
	}
	t.mu.Unlock()
}

// Faults returns the resilience counters keyed by event kind ("retry",
// "panic", "timeout") — the numbers chaos tests reconcile against the
// injected fault plan.
func (t *Tally) Faults() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cloneCounts(t.faults)
}

// Snapshot flattens the counters into "family/label" keys — the shape
// served live by the expvar debug endpoint.
func (t *Tally) Snapshot() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int64{}
	for _, f := range []struct {
		name string
		m    map[string]int64
	}{
		{"programs", t.dispositions},
		{"hazards", t.hazards},
		{"rewrites", t.rewrites},
		{"verifications", t.verdicts},
		{"faults", t.faults},
		{"cache_hits", t.cacheHits},
		{"cache_misses", t.cacheMisses},
		{"cache_evictions", t.cacheEvicts},
	} {
		for label, n := range f.m {
			out[f.name+"/"+label] = n
		}
	}
	// Data-plane totals are always present — a scraper watching the
	// debug endpoint must never see a key appear or vanish between
	// samples just because activity started or stopped.
	out["dataplane/index_probes"] = t.dataplane.IndexProbes
	out["dataplane/index_scans"] = t.dataplane.IndexScans
	out["dataplane/migration_fused_steps"] = t.dataplane.FusedSteps
	out["dataplane/migration_stepwise_steps"] = t.dataplane.StepwiseSteps
	out["dataplane/migration_shards"] = t.dataplane.MigrationShards
	out["dataplane/bulk_loaded_records"] = t.dataplane.BulkLoadedRecords
	return out
}

// promFamily writes one counter family, labels sorted for byte-stable
// output.
func promFamily(w io.Writer, name, help, label string, m map[string]int64) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name); err != nil {
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, m[k]); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the tally's counters in Prometheus text
// exposition format. A nil *Tally is valid and writes nothing.
func (t *Tally) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	dp := t.dataplane
	families := []struct {
		name, help, label string
		m                 map[string]int64
	}{
		{"progconv_programs_total", "Programs by conversion disposition.", "disposition", cloneCounts(t.dispositions)},
		{"progconv_hazards_total", "Hazard findings by kind.", "kind", cloneCounts(t.hazards)},
		{"progconv_dml_rewrites_total", "DML statements rewritten by verb.", "verb", cloneCounts(t.rewrites)},
		{"progconv_verifications_total", "Equivalence verdicts by result.", "result", cloneCounts(t.verdicts)},
		{"progconv_faults_total", "Resilience faults by kind (retry, panic, timeout).", "kind", cloneCounts(t.faults)},
		{"progconv_cache_hits_total", "Conversion-cache hits by scope.", "scope", cloneCounts(t.cacheHits)},
		{"progconv_cache_misses_total", "Conversion-cache misses by scope.", "scope", cloneCounts(t.cacheMisses)},
		{"progconv_cache_evictions_total", "Conversion-cache LRU evictions by scope.", "scope", cloneCounts(t.cacheEvicts)},
	}
	t.mu.Unlock()
	for _, f := range families {
		if err := promFamily(w, f.name, f.help, f.label, f.m); err != nil {
			return err
		}
	}
	// Data-plane counters are label-free totals, written
	// unconditionally (zeros included): a registered time series that
	// disappears between scrapes breaks rate() and alerting, so the
	// family set never depends on whether activity happened yet.
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"progconv_index_probes_total", "FIND requests answered by an exact-key index probe.", dp.IndexProbes},
		{"progconv_index_scans_total", "FIND requests answered by a full occurrence scan.", dp.IndexScans},
		{"progconv_migration_fused_steps_total", "Migration steps executed inside fused single-pass runs.", dp.FusedSteps},
		{"progconv_migration_stepwise_steps_total", "Migration steps executed as their own full-database pass.", dp.StepwiseSteps},
		{"progconv_migration_shards_total", "Shards the sharded migration rebuild passes fanned out into.", dp.MigrationShards},
		{"progconv_bulk_loaded_records_total", "Records inserted through the bulk-load merge phase.", dp.BulkLoadedRecords},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	return nil
}

func cloneCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
