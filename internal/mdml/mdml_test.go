package mdml

import (
	"strings"
	"testing"

	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// companyDB loads the Figure 4.2 database used by the paper's two FIND
// examples.
func companyDB(t *testing.T) *netstore.DB {
	t.Helper()
	db := netstore.NewDB(schema.CompanyV1())
	s := netstore.NewSession(db)
	for _, d := range []struct{ n, l string }{
		{"MACHINERY", "DETROIT"}, {"TEXTILES", "ATLANTA"},
	} {
		if _, st, err := s.Store("DIV", value.FromPairs("DIV-NAME", d.n, "DIV-LOC", d.l)); st != netstore.OK || err != nil {
			t.Fatalf("store DIV: %v %v", st, err)
		}
	}
	for _, e := range []struct {
		div, name, dept string
		age             int
	}{
		{"MACHINERY", "ADAMS", "SALES", 45},
		{"MACHINERY", "BAKER", "SALES", 28},
		{"MACHINERY", "CLARK", "WELDING", 33},
		{"TEXTILES", "DAVIS", "SALES", 51},
		{"TEXTILES", "EVANS", "LOOMS", 24},
	} {
		s.FindAny("DIV", value.FromPairs("DIV-NAME", e.div))
		if _, st, err := s.Store("EMP", value.FromPairs(
			"EMP-NAME", e.name, "DEPT-NAME", e.dept, "AGE", e.age)); st != netstore.OK || err != nil {
			t.Fatalf("store EMP %s: %v %v", e.name, st, err)
		}
	}
	return db
}

func names(e *Evaluator, ids []netstore.RecordID) []string {
	var out []string
	for _, r := range e.Records(ids) {
		out = append(out, r.MustGet("EMP-NAME").AsString())
	}
	return out
}

// TestPaperExample1 runs §4.2 example 1: "Find all employee records for
// employees whose age is greater than 30."
func TestPaperExample1(t *testing.T) {
	e := NewEvaluator(companyDB(t))
	f, err := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.Eval(f)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(names(e, ids), ",")
	// ALL-DIV is keyed (MACHINERY before TEXTILES); DIV-EMP keyed by name.
	if got != "ADAMS,CLARK,DAVIS" {
		t.Errorf("EMP(AGE>30) = %s", got)
	}
}

// TestPaperExample2 runs §4.2 example 2: employees in the SALES department
// of the MACHINERY division.
func TestPaperExample2(t *testing.T) {
	e := NewEvaluator(companyDB(t))
	f, err := ParseFind(`FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'),
	                          DIV-EMP, EMP(DEPT-NAME = 'SALES'))`)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.Eval(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names(e, ids), ","); got != "ADAMS,BAKER" {
		t.Errorf("MACHINERY/SALES = %s", got)
	}
}

func TestSortWrapper(t *testing.T) {
	e := NewEvaluator(companyDB(t))
	v, err := ParseSortOrFind("SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))) ON (AGE)")
	if err != nil {
		t.Fatal(err)
	}
	srt := v.(*Sort)
	ids, err := e.EvalSort(srt)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names(e, ids), ","); got != "CLARK,ADAMS,DAVIS" {
		t.Errorf("sorted by age = %s", got)
	}
	if !strings.Contains(srt.String(), "SORT(FIND(EMP:") || !strings.Contains(srt.String(), "ON (AGE)") {
		t.Errorf("Sort rendering: %s", srt)
	}
}

func TestFindRendersAndReparses(t *testing.T) {
	src := "FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(AGE > 30 AND DEPT-NAME <> 'SALES'))"
	f, err := ParseFind(src)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ParseFind(f.String())
	if err != nil {
		t.Fatalf("rendered FIND does not reparse: %v\n%s", err, f)
	}
	e := NewEvaluator(companyDB(t))
	ids1, err1 := e.Eval(f)
	ids2, err2 := e.Eval(f2)
	if err1 != nil || err2 != nil || len(ids1) != len(ids2) {
		t.Errorf("round-trip changed semantics: %v/%v %v/%v", ids1, err1, ids2, err2)
	}
}

// TestFloatLiteralRoundTrip: a rendered FIND reparses to the same
// literal kind and value; %g rendered 1000000.0 as 1e+06, which no
// parser reads, and 7.0 as the Int 7.
func TestFloatLiteralRoundTrip(t *testing.T) {
	for _, lit := range []string{"7.0", "1000000.0", "0.00001", "-7.0"} {
		f, err := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE = " + lit + "))")
		if err != nil {
			t.Fatal(err)
		}
		f2, err := ParseFind(f.String())
		if err != nil {
			t.Fatalf("%s: rendered FIND does not reparse: %v\n%s", lit, err, f)
		}
		a, b := f.Steps[4].Qual.(Cmp).Lit, f2.Steps[4].Qual.(Cmp).Lit
		if a.Kind() != value.Float || b.Kind() != value.Float || a.AsFloat() != b.AsFloat() {
			t.Errorf("%s: %v (%v) reparsed as %v (%v)", lit, a, a.Kind(), b, b.Kind())
		}
	}
}

func TestCollectionStart(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	f1, _ := ParseFind("FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'TEXTILES'))")
	divs, err := e.Eval(f1)
	if err != nil || len(divs) != 1 {
		t.Fatalf("%v %v", divs, err)
	}
	e.Collections["TEXDIVS"] = divs
	f2, err := ParseFind("FIND(EMP: TEXDIVS, DIV-EMP, EMP)")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.Eval(f2)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names(e, ids), ","); got != "DAVIS,EVANS" {
		t.Errorf("collection start = %s", got)
	}
}

func TestQualOperatorsAndConnectives(t *testing.T) {
	e := NewEvaluator(companyDB(t))
	cases := []struct {
		qual string
		want int
	}{
		{"AGE >= 45", 2},
		{"AGE <= 24", 1},
		{"AGE < 28", 1},
		{"AGE <> 45", 4},
		{"AGE = 45", 1},
		{"AGE > 30 AND DEPT-NAME = 'SALES'", 2},
		{"AGE < 25 OR AGE > 50", 2},
		{"NOT DEPT-NAME = 'SALES'", 2},
		{"(AGE > 30 OR AGE < 25) AND DEPT-NAME = 'SALES'", 2},
	}
	for _, tc := range cases {
		f, err := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(" + tc.qual + "))")
		if err != nil {
			t.Fatalf("%s: %v", tc.qual, err)
		}
		ids, err := e.Eval(f)
		if err != nil || len(ids) != tc.want {
			t.Errorf("%s: %d records, %v", tc.qual, len(ids), err)
		}
	}
}

func TestQualParams(t *testing.T) {
	e := NewEvaluator(companyDB(t))
	e.Params["MIN"] = value.Of(40)
	f, err := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > :MIN))")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.Eval(f)
	if err != nil || len(ids) != 2 {
		t.Errorf("%v %v", ids, err)
	}
	delete(e.Params, "MIN")
	if _, err := e.Eval(f); err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Errorf("unbound: %v", err)
	}
}

func TestQualOnVirtualField(t *testing.T) {
	e := NewEvaluator(companyDB(t))
	// DIV-NAME on EMP is virtual; a FIND can still qualify on it.
	f, err := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DIV-NAME = 'TEXTILES'))")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.Eval(f)
	if err != nil || len(ids) != 2 {
		t.Errorf("%v %v", ids, err)
	}
}

func TestNegativeLiteralQual(t *testing.T) {
	e := NewEvaluator(companyDB(t))
	f, err := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > -1))")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.Eval(f)
	if err != nil || len(ids) != 5 {
		t.Errorf("%v %v", ids, err)
	}
}

func TestEvalErrors(t *testing.T) {
	e := NewEvaluator(companyDB(t))
	cases := []struct {
		src, want string
	}{
		{"FIND(NOPE: SYSTEM, ALL-DIV, DIV)", "unknown target"},
		{"FIND(EMP: SYSTEM, DIV-EMP, EMP)", "not SYSTEM-owned"},
		{"FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP)", "must end at the target"},
		{"FIND(EMP: SYSTEM, ALL-DIV, EMP)", "yields DIV records"},
		{"FIND(EMP: MYSTERY, DIV-EMP, EMP)", "unknown collection"},
		{"FIND(EMP: SYSTEM, ALL-DIV, DIV, NONSET, EMP)", "cannot classify"},
		{"FIND(EMP: SYSTEM, ALL-DIV, DIV(AGE > 1), DIV-EMP, EMP)", "no field AGE"},
	}
	for _, tc := range cases {
		f, err := ParseFind(tc.src)
		if err != nil {
			t.Fatalf("%s should parse: %v", tc.src, err)
		}
		if _, err := e.Eval(f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.src, err, tc.want)
		}
	}
	if _, err := e.Eval(&Find{Target: "EMP"}); err == nil {
		t.Error("empty path")
	}
	// SYSTEM not at the start.
	f := &Find{Target: "EMP", Steps: []Step{
		{Kind: SetStep, Name: "ALL-DIV"}, {Kind: SystemStep},
	}}
	if _, err := e.Eval(f); err == nil {
		t.Error("SYSTEM mid-path")
	}
	// Traversing a set from the wrong record type.
	f2 := &Find{Target: "EMP", Steps: []Step{
		{Kind: SystemStep}, {Kind: SetStep, Name: "ALL-DIV"},
		{Kind: RecordStep, Name: "DIV"}, {Kind: SetStep, Name: "ALL-DIV"},
		{Kind: RecordStep, Name: "EMP"},
	}}
	if _, err := e.Eval(f2); err == nil {
		t.Error("re-traversing ALL-DIV from DIV members")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"FIND EMP: SYSTEM)",
		"FIND(EMP SYSTEM)",
		"FIND(EMP: SYSTEM, DIV(AGE >)",
		"FIND(EMP: SYSTEM, DIV(AGE ! 3))",
		"FIND(EMP: SYSTEM, DIV) JUNK",
		"SORT(FIND(EMP: SYSTEM, DIV)) ON",
		"'bad",
	} {
		if _, err := ParseSortOrFind(src); err == nil {
			t.Errorf("%q should not parse", src)
		}
	}
	if _, err := ParseFind("'bad"); err == nil {
		t.Error("ParseFind lex error")
	}
}

func TestDeleteCollection(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	f, _ := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DEPT-NAME = 'SALES'))")
	ids, err := e.Eval(f)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.Delete(ids)
	if err != nil || n != 3 {
		t.Fatalf("deleted %d, %v", n, err)
	}
	if db.Count("EMP") != 2 {
		t.Errorf("EMP count = %d", db.Count("EMP"))
	}
	// Deleting owners cascades; a second delete over stale IDs is a no-op.
	n, err = e.Delete(ids)
	if err != nil || n != 0 {
		t.Errorf("re-delete: %d, %v", n, err)
	}
}

func TestDeleteOwnersCascades(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	f, _ := ParseFind("FIND(DIV: SYSTEM, ALL-DIV, DIV)")
	ids, _ := e.Eval(f)
	n, err := e.Delete(ids)
	if err != nil || n != 2 {
		t.Fatalf("%d %v", n, err)
	}
	if db.Count("EMP") != 0 {
		t.Error("MANDATORY members should cascade")
	}
}

func TestModifyCollection(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	f, _ := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DEPT-NAME = 'SALES'))")
	ids, _ := e.Eval(f)
	n, err := e.Modify(ids, value.FromPairs("DEPT-NAME", "MARKETING"))
	if err != nil || n != 3 {
		t.Fatalf("%d %v", n, err)
	}
	ids2, _ := e.Eval(f)
	if len(ids2) != 0 {
		t.Error("SALES records should be gone")
	}
	_ = db
}

func TestModifyDuplicateFails(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	f, _ := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(EMP-NAME = 'ADAMS'))")
	ids, _ := e.Eval(f)
	if _, err := e.Modify(ids, value.FromPairs("EMP-NAME", "BAKER")); err == nil {
		t.Error("duplicate set key should fail")
	}
}

func TestStoreViaOwnerPath(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	owner, _ := ParseFind("FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'TEXTILES'))")
	id, err := e.Store("EMP",
		value.FromPairs("EMP-NAME", "FOSTER", "DEPT-NAME", "LOOMS", "AGE", 30),
		map[string]*Find{"DIV-EMP": owner})
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Data(id)
	if rec.MustGet("DIV-NAME").AsString() != "TEXTILES" {
		t.Errorf("stored under wrong owner: %v", rec)
	}
}

func TestStoreErrors(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	if _, err := e.Store("NOPE", value.NewRecord(), nil); err == nil {
		t.Error("unknown type")
	}
	// Ambiguous owner path.
	allDivs, _ := ParseFind("FIND(DIV: SYSTEM, ALL-DIV, DIV)")
	_, err := e.Store("EMP", value.FromPairs("EMP-NAME", "X", "DEPT-NAME", "Y", "AGE", 1),
		map[string]*Find{"DIV-EMP": allDivs})
	if err == nil || !strings.Contains(err.Error(), "need exactly 1") {
		t.Errorf("ambiguous owner: %v", err)
	}
	// No owner path for an AUTOMATIC set.
	if _, err := e.Store("EMP", value.FromPairs("EMP-NAME", "X", "DEPT-NAME", "Y", "AGE", 1), nil); err == nil {
		t.Error("missing owner path should fail")
	}
	// Duplicate set key.
	owner, _ := ParseFind("FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'))")
	if _, err := e.Store("EMP", value.FromPairs("EMP-NAME", "ADAMS", "DEPT-NAME", "Y", "AGE", 1),
		map[string]*Find{"DIV-EMP": owner}); err == nil {
		t.Error("duplicate in set should fail")
	}
}

func TestSortIDsErrors(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	f, _ := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)")
	ids, _ := e.Eval(f)
	if _, err := e.SortIDs(ids, []string{"NOPE"}); err == nil {
		t.Error("unknown sort field")
	}
	if _, err := e.SortIDs([]netstore.RecordID{999999}, []string{"AGE"}); err == nil {
		t.Error("stale ID")
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	db := companyDB(t)
	e := NewEvaluator(db)
	if e.DB() != db {
		t.Error("DB accessor")
	}
}

func TestDedupAcrossPaths(t *testing.T) {
	// Two DIVs share no EMPs here, but dedup must hold structurally: build
	// a schema where two set steps could reach the same record twice.
	db := companyDB(t)
	e := NewEvaluator(db)
	f, _ := ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)")
	ids, err := e.Eval(f)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[netstore.RecordID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate record in collection")
		}
		seen[id] = true
	}
	if len(ids) != 5 {
		t.Errorf("all-EMP count = %d", len(ids))
	}
}
