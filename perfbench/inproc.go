package main

// The in-process workloads: verify-large (progconv.Convert with a
// verification database, no cache) and translate-large (Plan.Migrate
// alone). One caller runs jobs back to back; the process hosting the
// system under test is this one.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"progconv"
	"progconv/internal/core"
	"progconv/internal/dbprog"
	"progconv/internal/equiv"
	"progconv/internal/netstore"
	"progconv/internal/obs"
	"progconv/internal/schema"
	"progconv/internal/wire"
	"progconv/internal/xform"
)

// loadRepeated loads the population under the set-up repeat rule and
// returns the last database with every load's duration.
// The set-ups' garbage is returned to the OS and the peak reset, so
// peak_rss_mb covers the timed window.
func loadRepeated(pop *population) (*netstore.DB, []time.Duration, error) {
	var db *netstore.DB
	loads, err := repeatSetup(func() (err error) {
		db, err = pop.load()
		return err
	}, func() error { return nil })
	if err != nil {
		return nil, nil, err
	}
	debug.FreeOSMemory()
	return db, loads, resetPeak(selfPID())
}

// busyLoop sums the time and CPU one in-process caller spends inside
// jobs, so oracle checks between jobs count toward neither. Each job
// starts from a collected heap: it does not pay for its predecessor's
// garbage (or the oracle's), only for the collections its own
// allocations trigger.
type busyLoop struct {
	busy time.Duration
	cpu  time.Duration
}

// timed runs fn as the measured part of one job.
func (b *busyLoop) timed(fn func() error) (time.Duration, error) {
	runtime.GC()
	c0, t0 := selfCPU(), time.Now()
	err := fn()
	lat := time.Since(t0)
	b.busy += lat
	b.cpu += selfCPU() - c0
	return lat, err
}

// untracedInproc runs an in-process workload's timed window with one
// caller and returns its end-to-end metrics.
func untracedInproc(cfg config, loads []time.Duration, job func(b *busyLoop) jobFunc) (*measurement, error) {
	b := &busyLoop{}
	w := closedLoop(1, cfg.Seconds, 0, 2, job(b))
	v := map[string]float64{}
	latencyMetrics(v, w, b.busy)
	v["cpu_ms_per_job"] = ms(float64(b.cpu)) / float64(max(len(w.lat), 1))
	peak, err := procMemMB(selfPID(), "VmHWM")
	if err != nil {
		return nil, err
	}
	v["peak_rss_mb"] = peak
	v["setup_s"] = medianSeconds(loads)
	return &measurement{attempted: w.attempted, failed: w.failed, values: v, notes: []string{tailNote(w)}}, nil
}

// stageSink keeps the stage-end events of one run.
type stageSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *stageSink) Emit(ev obs.Event) {
	if ev.Kind != obs.EvStageEnd {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// stageSpan names the layer behind each Figure 4.1 stage.
var stageSpan = map[string]string{
	"analyze":  "analyzer.analyze",
	"convert":  "convert.convert",
	"optimize": "optimizer.optimize",
	"generate": "generator.generate",
	"verify":   "equiv.verify",
}

// verifyJob is one verify-large job's inputs.
type verifyJob struct {
	shape  string
	progs  []genProgram
	parsed []*progconv.Program
}

func runVerify(cfg config, st stamp) (*measurement, error) {
	pop := genPopulation(cfg.Seed, verifyShape)
	db, loads, err := loadRepeated(pop)
	if err != nil {
		return nil, err
	}
	pool, err := genPrograms(cfg.Seed, verifyPool, verifyShape)
	if err != nil {
		return nil, err
	}
	pool = dealJobs(pool, verifyProgs)
	parsed := make([]*progconv.Program, len(pool))
	for i, p := range pool {
		if parsed[i], err = progconv.ParseProgram(p.Source); err != nil {
			return nil, fmt.Errorf("generated program %s: %w", p.Name, err)
		}
	}
	v1, err := progconv.ParseNetworkSchema(schema.CompanyV1().DDL())
	if err != nil {
		return nil, err
	}
	v2, err := progconv.ParseNetworkSchema(schema.CompanyV2().DDL())
	if err != nil {
		return nil, err
	}
	jobAt := func(i int) verifyJob {
		lo := (i * verifyProgs) % len(pool)
		return verifyJob{shape: planShape(i), progs: pool[lo : lo+verifyProgs], parsed: parsed[lo : lo+verifyProgs]}
	}
	convertJob := func(j verifyJob, opts ...progconv.Option) (*core.Report, error) {
		opts = append(opts, progconv.WithVerifyDB(db))
		if j.shape == shapeSplit {
			return progconv.Convert(context.Background(), v1, v2, nil, j.parsed, opts...)
		}
		return progconv.Convert(context.Background(), v1, nil, fourStepPlan(), j.parsed, opts...)
	}
	check := func(j verifyJob, rep *core.Report) error {
		return checkReport(j.shape, j.progs, wire.FromReport(rep), true)
	}
	plain := func(b *busyLoop) jobFunc {
		return func(_, i int) (time.Duration, error) {
			j := jobAt(i)
			var rep *core.Report
			lat, err := b.timed(func() (err error) { rep, err = convertJob(j); return err })
			if err != nil {
				return lat, err
			}
			return lat, check(j, rep)
		}
	}
	if !cfg.Trace {
		return untracedInproc(cfg, loads, plain)
	}

	// Traced run: an untraced half for the baseline throughput and the
	// runtime counters, then a traced half recording spans.
	half := cfg.Seconds / 2
	b0 := &busyLoop{}
	r0 := sampleRuntime()
	w0 := closedLoop(1, half, 0, 2, plain(b0))
	r1 := sampleRuntime()

	rec := newRecorder()
	b1 := &busyLoop{}
	probes0, scans0 := db.IndexStatsOf().Snapshot()
	var (
		verified, equal, jobs int
		shards, bulk          int64
	)
	w1 := closedLoop(1, half, 0, 2, func(_, i int) (time.Duration, error) {
		j := jobAt(i)
		sink := &stageSink{}
		var rep *core.Report
		var t0 time.Time
		lat, err := b1.timed(func() (err error) {
			t0 = time.Now()
			rep, err = convertJob(j, progconv.WithEventSink(sink), progconv.WithMetrics())
			return err
		})
		root := rec.add("job", i, 0, rec.at(t0), rec.at(t0.Add(lat)))
		for _, ev := range sink.events {
			end := rec.at(t0) + ev.T
			rec.add(stageSpan[ev.Stage.String()], i, root, end-ev.Dur, end)
		}
		if err != nil {
			return lat, err
		}
		if err := check(j, rep); err != nil {
			return lat, err
		}
		jobs++
		shards += rep.DataPlane.MigrationShards
		bulk += rep.DataPlane.BulkLoadedRecords
		for _, o := range rep.Outcomes {
			if o.Verified != nil {
				verified++
				if o.Verified.Equal {
					equal++
				}
			}
		}
		return lat, replayVerify(rec, i, db, rep, j)
	})
	probes1, scans1 := db.IndexStatsOf().Snapshot()

	spans := rec.spans
	self := selfTimes(spans)
	v := zeroLayers()
	v["netstore.load_krec_per_s"] = float64(pop.Records()) / medianSeconds(loads) / 1000
	v["analyzer.analyze_us"] = us(p50Self(spans, self, "analyzer.analyze"))
	v["convert.convert_us"] = us(p50Self(spans, self, "convert.convert"))
	v["optimizer.optimize_us"] = us(p50Self(spans, self, "optimizer.optimize"))
	v["netstore.clone_ms"] = ms(p50Self(spans, self, "netstore.clone"))
	v["equiv.check_ms"] = ms(p50Self(spans, self, "equiv.check"))
	v["equiv.equal_ratio"] = float64(equal) / float64(max(verified, 1))
	v["netstore.index_probe_ratio"] = ratio(probes1-probes0, scans1-scans0)
	v["xform.shards"] = float64(shards) / float64(max(jobs, 1))
	v["netstore.bulk_records"] = float64(bulk) / float64(max(jobs, 1))
	v["core.residual_ms"] = ms(p50Self(spans, self, "job"))
	v["core.allocs_per_job"] = allocsPerJob(r0, r1, w0.attempted)
	v["core.gc_cpu_fraction"] = gcFraction(r0, r1)
	v["trace.overhead_ratio"] = (float64(len(w1.lat)) / b1.busy.Seconds()) / (float64(len(w0.lat)) / b0.busy.Seconds())
	counters := map[string]any{
		"netstore.IndexStatsOf": map[string]int64{"probes": probes1 - probes0, "scans": scans1 - scans0},
		"equiv.Verdict":         map[string]int{"verified": verified, "equal": equal},
		"core.DataPlane":        map[string]int64{"jobs": int64(jobs), "migration_shards": shards, "bulk_loaded_records": bulk},
	}
	return tracedMeasurement(cfg, st, w0, w1, spans, counters, v)
}

// replayVerify times, outside the job, the verification layers the
// verify stage runs inside it: the two database clones and the
// equivalence check of the job's first automatic program.
func replayVerify(rec *recorder, job int, db *netstore.DB, rep *core.Report, j verifyJob) error {
	for pi, o := range rep.Outcomes {
		if o.Disposition != core.Auto || o.Converted == nil {
			continue
		}
		start := time.Now()
		var src, dst *netstore.DB
		root := rec.add("replay", job, 0, 0, 0)
		rec.around("netstore.clone", job, root, func() { src = db.Clone() })
		rec.around("netstore.clone", job, root, func() { dst = rep.TargetDB.Clone() })
		var v equiv.Verdict
		rec.around("equiv.check", job, root, func() {
			v = equiv.Check(context.Background(), j.parsed[pi], dbprog.Config{Net: src}, o.Converted, dbprog.Config{Net: dst})
		})
		rec.finish(root, rec.at(start), rec.at(time.Now()))
		if !v.Equal {
			return fmt.Errorf("%s: replayed equivalence check is unequal: %s", o.Name, v.Diff())
		}
		return nil
	}
	return nil
}

func runTranslate(cfg config, st stamp) (*measurement, error) {
	pop := genPopulation(cfg.Seed, translateShape)
	db, loads, err := loadRepeated(pop)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	plans := map[string]*xform.Plan{shapeSplit: splitPlan(), shapeFourStep: fourStepPlan()}
	check := func(i int, out *netstore.DB) error {
		return checkMigration(planShape(i), pop, out, cfg.Seed+int64(i))
	}
	plain := func(b *busyLoop) jobFunc {
		return func(_, i int) (time.Duration, error) {
			var out *netstore.DB
			lat, err := b.timed(func() (err error) {
				out, _, err = plans[planShape(i)].Migrate(ctx, db, xform.MigrateOptions{})
				return err
			})
			if err != nil {
				return lat, err
			}
			return lat, check(i, out)
		}
	}
	if !cfg.Trace {
		return untracedInproc(cfg, loads, plain)
	}

	half := cfg.Seconds / 2
	b0 := &busyLoop{}
	r0 := sampleRuntime()
	w0 := closedLoop(1, half, 0, 2, plain(b0))
	r1 := sampleRuntime()

	rec := newRecorder()
	b1 := &busyLoop{}
	var sum xform.MigrateStats
	jobs := 0
	w1 := closedLoop(1, half, 0, 2, func(_, i int) (time.Duration, error) {
		var out *netstore.DB
		var stats xform.MigrateStats
		var err error
		lat, _ := b1.timed(func() error {
			start := time.Now()
			root := rec.add("job", i, 0, 0, 0)
			rec.around("xform.migrate", i, root, func() {
				out, stats, err = plans[planShape(i)].Migrate(ctx, db, xform.MigrateOptions{})
			})
			rec.finish(root, rec.at(start), rec.at(time.Now()))
			return err
		})
		if err != nil {
			return lat, err
		}
		jobs++
		sum.Shards += stats.Shards
		sum.BulkRecords += stats.BulkRecords
		sum.FusedSteps += stats.FusedSteps
		sum.Passes += stats.Passes
		return lat, check(i, out)
	})

	spans := rec.spans
	self := selfTimes(spans)
	mig := p50Self(spans, self, "xform.migrate")
	v := zeroLayers()
	v["netstore.load_krec_per_s"] = float64(pop.Records()) / medianSeconds(loads) / 1000
	v["xform.migrate_ms"] = ms(mig)
	v["xform.migrate_krec_per_s"] = float64(pop.Records()) / (mig / float64(time.Second)) / 1000
	v["xform.shards"] = float64(sum.Shards) / float64(max(jobs, 1))
	v["netstore.bulk_records"] = float64(sum.BulkRecords) / float64(max(jobs, 1))
	v["core.residual_ms"] = ms(p50Self(spans, self, "job"))
	v["core.allocs_per_job"] = allocsPerJob(r0, r1, w0.attempted)
	v["core.gc_cpu_fraction"] = gcFraction(r0, r1)
	v["trace.overhead_ratio"] = (float64(len(w1.lat)) / b1.busy.Seconds()) / (float64(len(w0.lat)) / b0.busy.Seconds())
	counters := map[string]any{"xform.MigrateStats": map[string]int{
		"jobs": jobs, "shards": sum.Shards, "bulk_records": sum.BulkRecords,
		"fused_steps": sum.FusedSteps, "passes": sum.Passes,
	}}
	return tracedMeasurement(cfg, st, w0, w1, spans, counters, v)
}
