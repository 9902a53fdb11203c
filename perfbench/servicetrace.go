package main

// The traced run of the service workloads.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"progconv/internal/dbprog"
	"progconv/internal/fingerprint"
	"progconv/internal/plancache"
	"progconv/internal/schema"
	"progconv/internal/schema/ddl"
	"progconv/internal/wire"
	"progconv/internal/xform"
)

func traceService(cfg config, st stamp, hc *http.Client, warm []serviceJob, inputs serviceInputs) (*measurement, error) {
	var sh *spanHandler
	h, setups, warmFailed, err := setUpService(func() (*host, error) {
		h, s, err := startInProcess()
		sh = s
		return h, err
	}, hc, warm)
	if err != nil {
		return nil, err
	}
	defer h.stop()

	// The replay cache sees the pair sequence the server's cache sees:
	// primed with the warm variants, new pairs on service-cold.
	replayCache := plancache.New(0)
	for _, j := range warm[:min(len(warm), warmVariants)] {
		src, dst, err := parsePair(j.Pad)
		if err != nil {
			return nil, err
		}
		if _, err := replayCache.Pair(context.Background(), src, dst, nil); err != nil {
			return nil, err
		}
	}

	// Untraced half: baseline throughput, runtime counters, RSS growth.
	half := cfg.Seconds / 2
	rss0, err := procMemMB(h.pid, "VmRSS")
	if err != nil {
		return nil, err
	}
	r0 := sampleRuntime()
	w0 := closedLoop(serviceClients, half, 0, 1, plainServiceJob(hc, h.base, inputs))
	r1 := sampleRuntime()
	rss1, err := procMemMB(h.pid, "VmRSS")
	if err != nil {
		return nil, err
	}

	// Traced half.
	rec := newRecorder()
	sh.rec.Store(rec)
	s0 := h.cache.Stats()
	var reportBytes, reports atomic.Int64
	w1 := closedLoop(serviceClients, half, w0.attempted, 1, func(_, i int) (time.Duration, error) {
		j, err := inputs(i)
		if err != nil {
			return 0, err
		}
		root := rec.add("job", i, 0, 0, 0)
		t0 := time.Now()
		s, err := runJob(hc, h.base, j.Body, i, root)
		rec.finish(root, rec.at(t0), rec.at(t0.Add(s.lat)))
		if err != nil {
			return s.lat, err
		}
		if err := checkServiceReport(j, s.report); err != nil {
			return s.lat, err
		}
		reportBytes.Add(int64(len(s.report)))
		reports.Add(1)
		if err := importServerTrace(rec, hc, h.base, s, i, root); err != nil {
			return s.lat, err
		}
		return s.lat, replayService(rec, i, j, s.report, replayCache)
	})
	sh.rec.Store(nil)
	s1 := h.cache.Stats()

	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	self := selfTimes(spans)
	p50 := func(name string) float64 { return p50Self(spans, self, name) }
	jobs := float64(max(w1.attempted, 1))
	memoHits := (s1.AnalysisHits - s0.AnalysisHits) + (s1.ConversionHits - s0.ConversionHits) + (s1.CodegenHits - s0.CodegenHits)
	memoMisses := (s1.AnalysisMisses - s0.AnalysisMisses) + (s1.ConversionMisses - s0.ConversionMisses) + (s1.CodegenMisses - s0.CodegenMisses)
	evictions := (s1.PairEvictions - s0.PairEvictions) + (s1.AnalysisEvictions - s0.AnalysisEvictions) +
		(s1.ConversionEvictions - s0.ConversionEvictions) + (s1.CodegenEvictions - s0.CodegenEvictions)

	v := zeroLayers()
	v["serve.submit_ms"] = ms(p50("serve.submit"))
	v["serve.queue_wait_ms"] = ms(p50("serve.queue_wait"))
	v["serve.complete_ms"] = ms(p50("serve.complete"))
	v["serve.rss_mb_per_100_jobs"] = (rss1 - rss0) / float64(max(w0.attempted, 1)) * 100
	v["wire.decode_ms"] = ms(p50("wire.decode"))
	v["wire.encode_ms"] = ms(p50("wire.encode"))
	v["wire.report_kb"] = float64(reportBytes.Load()) / float64(max(reports.Load(), 1)) / 1024
	v["ddl.parse_us"] = us(p50("ddl.parse"))
	v["dbprog.parse_us"] = us(p50("dbprog.parse"))
	v["dbprog.format_us"] = us(p50("dbprog.format"))
	v["fingerprint.program_us"] = us(p50("fingerprint.program"))
	v["fingerprint.pair_us"] = us(p50("fingerprint.pair"))
	v["plancache.pair_ms"] = ms(p50("plancache.pair"))
	v["plancache.pair_hit_ratio"] = ratio(s1.PairHits-s0.PairHits, s1.PairMisses-s0.PairMisses)
	v["plancache.memo_hit_ratio"] = ratio(memoHits, memoMisses)
	v["plancache.evictions_per_job"] = float64(evictions) / jobs
	v["xform.build_pair_ms"] = ms(p50("xform.build_pair"))
	v["xform.classify_ms"] = ms(p50("xform.classify"))
	v["analyzer.analyze_us"] = us(p50("analyzer.analyze"))
	v["convert.convert_us"] = us(p50("convert.convert"))
	v["optimizer.optimize_us"] = us(p50("optimizer.optimize"))
	v["core.residual_ms"] = ms(p50("core"))
	v["core.allocs_per_job"] = allocsPerJob(r0, r1, w0.attempted)
	v["core.gc_cpu_fraction"] = gcFraction(r0, r1)
	v["trace.overhead_ratio"] = (float64(len(w1.lat)) / w1.elapsed.Seconds()) / (float64(len(w0.lat)) / w0.elapsed.Seconds())
	counters := map[string]any{"plancache.Cache.Stats": map[string]int64{
		"pair_hits": s1.PairHits - s0.PairHits, "pair_misses": s1.PairMisses - s0.PairMisses,
		"pair_evictions": s1.PairEvictions - s0.PairEvictions,
		"memo_hits":      memoHits, "memo_misses": memoMisses, "evictions": evictions,
	}}
	m, err := tracedMeasurement(cfg, st, w0, w1, spans, counters, v)
	if err != nil {
		return nil, err
	}
	m.attempted += warmFailed
	m.failed += warmFailed
	m.notes = append(m.notes, fmt.Sprintf("set-up %.3fs (median of %d)", medianSeconds(setups), len(setups)))
	return m, nil
}

// parsePair parses the COMPANY pair with the given PAD field.
func parsePair(pad string) (*schema.Network, *schema.Network, error) {
	srcDDL, dstDDL := padDDL(pad)
	src, err := ddl.ParseNetwork(srcDDL)
	if err != nil {
		return nil, nil, err
	}
	dst, err := ddl.ParseNetwork(dstDDL)
	return src, dst, err
}

// importServerTrace reads the finished job's /trace document and adds
// its queue wait, its conversion (the root span) and the per-program
// stage spans to the job's tree. The server's spans are offsets within
// the job; the conversion is placed to end when the event stream did.
func importServerTrace(rec *recorder, hc *http.Client, base string, s submission, job, root int) error {
	resp, err := hc.Get(base + "/v1/jobs/" + s.id + "/trace")
	if err != nil {
		return err
	}
	var doc wire.TraceDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding /trace: %w", err)
	}
	var convDur, wait time.Duration
	for _, sp := range doc.Spans {
		switch {
		case sp.Kind == "job":
			convDur = time.Duration(sp.DurNs)
		case sp.Kind == "phase" && sp.Name == "queue-wait":
			wait = time.Duration(sp.DurNs)
		}
	}
	end := rec.at(s.finished)
	start := end - convDur
	rec.add("serve.queue_wait", job, root, start-wait, start)
	core := rec.add("core", job, root, start, end)
	for _, sp := range doc.Spans {
		if name, ok := stageSpan[sp.Stage]; ok && sp.Kind == "stage" {
			a := start + time.Duration(sp.StartNs)
			rec.add(name, job, core, a, a+time.Duration(sp.DurNs))
		}
	}
	return nil
}

// replayService times, outside the job, the daemon's job path for
// layers the server gives no per-call timing of: the job decode, the
// schema and program parses, program formatting and fingerprints, the
// pair probe (and on a miss the pair build), and the report encode.
func replayService(rec *recorder, job int, j serviceJob, report []byte, cache *plancache.Cache) error {
	start := time.Now()
	root := rec.add("replay", job, 0, 0, 0)
	defer func() { rec.finish(root, rec.at(start), rec.at(time.Now())) }()

	var spec wire.JobSpec
	var err error
	rec.around("wire.decode", job, root, func() {
		if err = json.NewDecoder(bytes.NewReader(j.Body)).Decode(&spec); err == nil {
			err = spec.Validate()
		}
	})
	if err != nil {
		return err
	}
	var src, dst *schema.Network
	rec.around("ddl.parse", job, root, func() { src, err = ddl.ParseNetwork(spec.SourceDDL) })
	if err != nil {
		return err
	}
	rec.around("ddl.parse", job, root, func() { dst, err = ddl.ParseNetwork(spec.TargetDDL) })
	if err != nil {
		return err
	}
	progs := make([]*dbprog.Program, len(spec.Programs))
	for i, p := range spec.Programs {
		rec.around("dbprog.parse", job, root, func() { progs[i], err = dbprog.Parse(p.Source) })
		if err != nil {
			return err
		}
	}
	for _, p := range progs {
		rec.around("dbprog.format", job, root, func() { dbprog.Format(p) })
		rec.around("fingerprint.program", job, root, func() { fingerprint.Program(p) })
	}
	rec.around("fingerprint.pair", job, root, func() { fingerprint.PairKey(src, dst, nil) })
	rec.around("xform.classify", job, root, func() { _, err = xform.Classify(src, dst) })
	if err != nil {
		return err
	}
	misses := cache.Stats().PairMisses
	rec.around("plancache.pair", job, root, func() { _, err = cache.Pair(context.Background(), src, dst, nil) })
	if err != nil {
		return err
	}
	if cache.Stats().PairMisses > misses {
		rec.around("xform.build_pair", job, root, func() { _, err = plancache.BuildPair(src, dst, nil) })
		if err != nil {
			return err
		}
	}

	var r wire.Report
	if err := json.Unmarshal(report, &r); err != nil {
		return err
	}
	var buf bytes.Buffer
	rec.around("wire.encode", job, root, func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(&r)
	})
	return err
}
