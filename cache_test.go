package progconv

// Facade tests for the shared conversion cache: cached runs are
// byte-identical to uncached ones, cache traffic is observable through
// the exported Prometheus counters, and one Cache survives being
// hammered by many concurrent Convert calls (run under `go test -race`).

import (
	"context"
	"strings"
	"sync"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/telemetry"
	"progconv/internal/xform"
)

// TestSharedCacheHitsExported: two Convert calls sharing one cache — the
// second run registers pair and memo hits in progconv_cache_hits_total,
// and both reports are byte-identical to an uncached run.
func TestSharedCacheHitsExported(t *testing.T) {
	progs := corpusPrograms(t)
	base, err := Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, progs,
		WithVerifyDB(corpus.Database(corpus.PeriodProfile(42))))
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache(8)
	reg := telemetry.NewRegistry()
	inst := telemetry.NewInstruments(reg)
	for i := 0; i < 2; i++ {
		report, err := Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, progs,
			WithVerifyDB(corpus.Database(corpus.PeriodProfile(42))),
			WithCache(cache), WithEventSink(inst))
		if err != nil {
			t.Fatal(err)
		}
		if report.String() != base.String() {
			t.Fatalf("cached run %d differs from uncached:\n%s\nvs\n%s", i, report, base)
		}
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`progconv_cache_hits_total{scope="pair"} 1`,
		`progconv_cache_misses_total{scope="pair"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus export missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `progconv_cache_hits_total{scope="analysis"}`) {
		t.Errorf("no analysis-scope hits exported:\n%s", out)
	}
	s := cache.Stats()
	if s.PairHits != 1 || s.PairMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestConvertJobsFacade: one batch converts three distinct schema pairs
// on one pool and one cache; sub-reports are deterministic across
// parallelism.
func TestConvertJobsFacade(t *testing.T) {
	jobs := func(t *testing.T) []Job {
		return []Job{
			{Src: schema.CompanyV1(), Dst: schema.CompanyV2(),
				DB: corpus.Database(corpus.PeriodProfile(42)), Programs: corpusPrograms(t)},
			{Src: schema.CompanyV1(), Plan: figurePlan(), Programs: corpusPrograms(t)},
			{Src: schema.CompanyV1(), Plan: &xform.Plan{Steps: []xform.Transformation{
				xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
			}}, Programs: corpusPrograms(t)},
		}
	}
	cache := NewCache(8)
	serial, err := ConvertJobs(context.Background(), jobs(t), WithParallelism(1), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 3 {
		t.Fatalf("got %d reports", len(serial))
	}
	par, err := ConvertJobs(context.Background(), jobs(t), WithParallelism(8), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].String() != par[i].String() {
			t.Errorf("job %d: serial and parallel sub-reports differ:\n%s\nvs\n%s",
				i, serial[i], par[i])
		}
	}
	if s := cache.Stats(); s.PairMisses != 3 || s.PairHits < 3 {
		t.Errorf("stats = %+v", s)
	}
}

// TestConcurrentConvertsShareOneCache: many goroutines run Convert over
// a mix of schema pairs against one shared cache; every report must
// match its pair's reference run. The interesting assertions are the
// race detector's.
func TestConcurrentConvertsShareOneCache(t *testing.T) {
	progs := corpusPrograms(t)[:12]
	type variant struct {
		dst    *Schema
		plan   *Plan
		verify bool
	}
	variants := []variant{
		{dst: schema.CompanyV2(), verify: true},
		{plan: figurePlan()},
		{plan: &xform.Plan{Steps: []xform.Transformation{
			xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
		}}},
	}
	run := func(v variant, cache *Cache) string {
		opts := []Option{WithParallelism(4)}
		if cache != nil {
			opts = append(opts, WithCache(cache))
		}
		if v.verify {
			opts = append(opts, WithVerifyDB(corpus.Database(corpus.PeriodProfile(42))))
		}
		report, err := Convert(context.Background(), schema.CompanyV1(), v.dst, v.plan, progs, opts...)
		if err != nil {
			t.Error(err)
			return ""
		}
		return report.String()
	}
	want := make([]string, len(variants))
	for i, v := range variants {
		want[i] = run(v, nil)
	}

	cache := NewCache(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				vi := (g + i) % len(variants)
				if got := run(variants[vi], cache); got != want[vi] {
					t.Errorf("goroutine %d, variant %d: cached report diverged", g, vi)
				}
			}
		}(g)
	}
	wg.Wait()
	if s := cache.Stats(); s.PairMisses != int64(len(variants)) {
		t.Errorf("pair misses = %d, want %d (singleflight across goroutines)",
			s.PairMisses, len(variants))
	}
}

// TestCacheKeepsFloatLiteralsApart: PRINT 7.0 / 2. and PRINT 7 / 2.
// differ only in a literal's kind, so their canonical forms — the
// fingerprint input and the generated text — must differ too. When a
// Float rendered as 7 they shared one fingerprint, and a cache warmed by
// the Int program served its conversion (printing 3) for the Float one.
func TestCacheKeepsFloatLiteralsApart(t *testing.T) {
	cache := NewCache(8)
	convert := func(expr string) (*Outcome, string) {
		t.Helper()
		p, err := ParseProgram("PROGRAM DIV DIALECT NETWORK.\n  PRINT " + expr + ".\nEND PROGRAM.\n")
		if err != nil {
			t.Fatal(err)
		}
		report, err := Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil,
			[]*Program{p}, WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		o := &report.Outcomes[0]
		if o.Converted == nil {
			t.Fatalf("%s: not converted: %v", expr, o.Disposition)
		}
		tr, err := dbprog.Run(o.Converted, dbprog.Config{Net: netstore.NewDB(schema.CompanyV2())})
		if err != nil {
			t.Fatal(err)
		}
		return o, tr.String()
	}
	if _, out := convert("7 / 2"); !strings.Contains(out, "3") || strings.Contains(out, "3.5") {
		t.Fatalf("int program prints %q, want 3", out)
	}
	o, out := convert("7.0 / 2")
	if !strings.Contains(out, "3.5") {
		t.Errorf("float program after a cached int program prints %q, want 3.5", out)
	}
	if !strings.Contains(o.Generated, "7.0 / 2") {
		t.Errorf("generated text lost the float literal:\n%s", o.Generated)
	}
	re, err := ParseProgram(o.Generated)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dbprog.Run(re, dbprog.Config{Net: netstore.NewDB(schema.CompanyV2())})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "3.5") {
		t.Errorf("reparsed generated text prints %q, want 3.5", tr.String())
	}
}
