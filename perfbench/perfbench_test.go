package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"progconv"
	"progconv/internal/core"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/wire"
	"progconv/internal/xform"
)

// tinyShape keeps the in-process smoke runs and oracle tests fast.
var tinyShape = shape{Divisions: 4, DeptsPerDiv: 2, Employees: 300}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := genPopulation(7, translateShape), genPopulation(7, translateShape)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different populations")
	}
	if reflect.DeepEqual(a, genPopulation(8, translateShape)) {
		t.Fatal("different seeds gave the same population")
	}
	da, err := genPopulation(7, tinyShape).load()
	if err != nil {
		t.Fatal(err)
	}
	db, err := genPopulation(7, tinyShape).load()
	if err != nil {
		t.Fatal(err)
	}
	if da.IndexDump() != db.IndexDump() || da.Len() != db.Len() {
		t.Fatal("same seed loaded different databases")
	}

	w1, err := warmJobs(7)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := warmJobs(7)
	p1, err := coldPool(7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := coldPool(7)
	for i := range w1 {
		if !bytes.Equal(w1[i].Body, w2[i].Body) {
			t.Fatalf("warm job %d differs between two draws of one seed", i)
		}
	}
	c1, _ := coldJob(p1, 5)
	c2, _ := coldJob(p2, 5)
	if !bytes.Equal(c1.Body, c2.Body) {
		t.Fatal("cold job differs between two draws of one seed")
	}
	other, _ := coldJob(p1, 6)
	for _, p := range c1.Programs {
		if strings.Contains(string(other.Body), p.Source) {
			t.Fatalf("cold jobs 5 and 6 share program text %s", p.Name)
		}
	}
}

func TestGeneratorDistributions(t *testing.T) {
	pop := genPopulation(3, translateShape)
	sizes := make([]float64, len(pop.Divs))
	var ages float64
	for i, e := range pop.Emps {
		sizes[e.Div]++
		ages += float64(e.Age)
		if i > 0 && e.Div < pop.Emps[i-1].Div {
			t.Fatal("employees are not grouped by division in load order")
		}
	}
	if big, mid := quantile(sizes, 1), median(sizes); big < 3*mid {
		t.Errorf("division sizes not skewed: largest %v, median %v", big, mid)
	}
	if mean := ages / float64(len(pop.Emps)); mean < 38 || mean > 44 {
		t.Errorf("mean age %.1f, want about 41", mean)
	}
	db, err := genPopulation(3, tinyShape).load()
	if err != nil {
		t.Fatal(err)
	}
	divs, emps := db.AllOf("DIV"), db.AllOf("EMP")
	if divs[len(divs)-1] > emps[0] {
		t.Error("an employee was stored before its division")
	}
}

// convertShape converts the programs under a plan shape in process.
func convertShape(t *testing.T, planShape string, progs []genProgram, db *netstore.DB) *wire.Report {
	t.Helper()
	parsed := make([]*progconv.Program, len(progs))
	for i, p := range progs {
		var err error
		if parsed[i], err = progconv.ParseProgram(p.Source); err != nil {
			t.Fatal(err)
		}
	}
	var opts []progconv.Option
	if db != nil {
		opts = append(opts, progconv.WithVerifyDB(db))
	}
	var rep *core.Report
	var err error
	if planShape == shapeSplit {
		rep, err = progconv.Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, parsed, opts...)
	} else {
		rep, err = progconv.Convert(context.Background(), schema.CompanyV1(), nil, fourStepPlan(), parsed, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return wire.FromReport(rep)
}

// TestExpectedDispositions checks the oracle's disposition table
// against real conversions on the seeds the table was written from.
func TestExpectedDispositions(t *testing.T) {
	for _, seed := range []int64{42, 7, 99} {
		progs, err := genPrograms(seed, 100, verifyShape)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range []string{shapeSplit, shapeFourStep} {
			if err := checkReport(sh, progs, convertShape(t, sh, progs, nil), false); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
		db, err := genPopulation(seed, tinyShape).load()
		if err != nil {
			t.Fatal(err)
		}
		tiny, err := genPrograms(seed, 40, tinyShape)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range []string{shapeSplit, shapeFourStep} {
			if err := checkReport(sh, tiny, convertShape(t, sh, tiny, db), true); err != nil {
				t.Errorf("seed %d, verified: %v", seed, err)
			}
		}
	}
}

func TestOracleCatchesBadReports(t *testing.T) {
	progs, err := genPrograms(42, 40, tinyShape)
	if err != nil {
		t.Fatal(err)
	}
	db, err := genPopulation(42, tinyShape).load()
	if err != nil {
		t.Fatal(err)
	}
	good := func() *wire.Report { return convertShape(t, shapeSplit, progs, db) }
	if err := checkReport(shapeSplit, progs, good(), true); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	firstAuto := func(r *wire.Report) *wire.Outcome {
		for i := range r.Outcomes {
			if r.Outcomes[i].Disposition == "auto" {
				return &r.Outcomes[i]
			}
		}
		t.Fatal("no automatic outcome")
		return nil
	}
	cases := map[string]func(r *wire.Report){
		"flipped disposition": func(r *wire.Report) { firstAuto(r).Disposition = "manual" },
		"false verified":      func(r *wire.Report) { firstAuto(r).Verified.Equal = false },
		"missing verdict":     func(r *wire.Report) { firstAuto(r).Verified = nil },
		"reordered outcomes":  func(r *wire.Report) { r.Outcomes[0], r.Outcomes[1] = r.Outcomes[1], r.Outcomes[0] },
		"dropped outcome":     func(r *wire.Report) { r.Outcomes = r.Outcomes[1:] },
	}
	for name, corrupt := range cases {
		r := good()
		corrupt(r)
		if err := checkReport(shapeSplit, progs, r, true); err == nil {
			t.Errorf("%s: oracle accepted the corrupted report", name)
		}
	}
}

func TestOracleCatchesBadMigrations(t *testing.T) {
	pop := genPopulation(5, tinyShape)
	src, err := pop.load()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	victim := pop.Emps[sampleEmployees(pop, seed)[0]].Name
	for _, sh := range []string{shapeSplit, shapeFourStep} {
		plan, empType := splitPlan(), "EMP"
		if sh == shapeFourStep {
			plan, empType = fourStepPlan(), "EMPLOYEE"
		}
		migrate := func() *netstore.DB {
			out, _, err := plan.Migrate(context.Background(), src, xform.MigrateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		if err := checkMigration(sh, pop, migrate(), seed); err != nil {
			t.Fatalf("%s: good migration rejected: %v", sh, err)
		}
		edit := func(db *netstore.DB, fn func(s *netstore.Session) (netstore.Status, error)) *netstore.DB {
			s := netstore.NewSession(db)
			if st, err := s.FindAny(empType, value.FromPairs("EMP-NAME", victim)); err != nil || st != netstore.OK {
				t.Fatalf("%s: finding %s: %v %v", sh, victim, st, err)
			}
			if st, err := fn(s); err != nil || st != netstore.OK {
				t.Fatalf("%s: editing %s: %v %v", sh, victim, st, err)
			}
			return db
		}
		dropped := edit(migrate(), func(s *netstore.Session) (netstore.Status, error) { return s.Erase(empType) })
		if err := checkMigration(sh, pop, dropped, seed); err == nil {
			t.Errorf("%s: oracle accepted a migration that dropped %s", sh, victim)
		}
		altered := edit(migrate(), func(s *netstore.Session) (netstore.Status, error) {
			return s.Modify(empType, value.FromPairs("AGE", 999))
		})
		if err := checkMigration(sh, pop, altered, seed); err == nil {
			t.Errorf("%s: oracle accepted a migration that altered %s", sh, victim)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	if self[1] != 40 || self[2] != 30 || self[4] != 30 {
		t.Fatalf("self times %v, want job 40, children 30 and 30", self)
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", doc.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced,
// and requires a complete, correct result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds progconvd and runs every workload")
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "progconvd")
	if out, err := exec.Command("go", "build", "-o", daemon, "progconv/cmd/progconvd").CombinedOutput(); err != nil {
		t.Fatalf("building progconvd: %v\n%s", err, out)
	}
	defer func(v, tr shape) { verifyShape, translateShape = v, tr }(verifyShape, translateShape)
	verifyShape, translateShape = tinyShape, tinyShape

	for _, wl := range []string{"service-warm", "service-cold", "verify-large", "translate-large"} {
		for _, traced := range []bool{false, true} {
			cfg := config{Workload: wl, Seed: 3, Seconds: 400 * time.Millisecond, Trace: traced, Daemon: daemon, Out: dir}
			st := stamp{Workload: wl, Seed: cfg.Seed, Trace: traced}
			var m *measurement
			var err error
			switch wl {
			case "verify-large":
				m, err = runVerify(cfg, st)
			case "translate-large":
				m, err = runTranslate(cfg, st)
			default:
				m, err = runService(cfg, st)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, st, m); err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", wl, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result %+v", wl, traced, res)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if lo, hi := quantile(xs, 0.1), quantile(xs, 0.9); !(lo > 1 && lo < 2 && hi > 4 && hi < 5) {
		t.Errorf("p10, p90 of 1..5 = %v, %v", lo, hi)
	}
	if got := betaInc(2, 3, 0.4); math.Abs(got-0.5248) > 1e-4 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
}
