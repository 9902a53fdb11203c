package sequel

import (
	"strings"
	"testing"

	"progconv/internal/relstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// personnelDB loads the §4.1 relational database.
func personnelDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB(schema.EmpDeptRelational())
	rows := []struct {
		rel string
		rec *value.Record
	}{
		{"EMP", value.FromPairs("E#", "E1", "ENAME", "BAKER", "AGE", 28)},
		{"EMP", value.FromPairs("E#", "E2", "ENAME", "CLARK", "AGE", 33)},
		{"EMP", value.FromPairs("E#", "E3", "ENAME", "ADAMS", "AGE", 45)},
		{"DEPT", value.FromPairs("D#", "D2", "DNAME", "SALES", "MGR", "SMITH")},
		{"DEPT", value.FromPairs("D#", "D12", "DNAME", "ACCT", "MGR", "JONES")},
		{"EMP-DEPT", value.FromPairs("E#", "E1", "D#", "D2", "YEAR-OF-SERVICE", 3)},
		{"EMP-DEPT", value.FromPairs("E#", "E2", "D#", "D2", "YEAR-OF-SERVICE", 11)},
		{"EMP-DEPT", value.FromPairs("E#", "E3", "D#", "D12", "YEAR-OF-SERVICE", 3)},
	}
	for _, r := range rows {
		if err := db.Insert(r.rel, r.rec); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestPaperTemplateA runs the paper's §4.1 SEQUEL template (A) verbatim:
// "Get the names of those employees who have worked for department D2
// for three years."
func TestPaperTemplateA(t *testing.T) {
	db := personnelDB(t)
	q, err := ParseQuery(`
SELECT ENAME FROM EMP WHERE E# IN
    SELECT E# FROM EMP-DEPT WHERE D# = 'D2'
    AND YEAR-OF-SERVICE = 3`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Exec(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].MustGet("ENAME").AsString() != "BAKER" {
		t.Errorf("rows = %v", rows)
	}
}

func TestSelectStar(t *testing.T) {
	db := personnelDB(t)
	q, err := ParseQuery("SELECT * FROM DEPT WHERE MGR = 'SMITH'")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Exec(db, q, nil)
	if err != nil || len(rows) != 1 {
		t.Fatalf("%v %v", rows, err)
	}
	if rows[0].Len() != 3 {
		t.Error("SELECT * should project all columns")
	}
}

func TestComparisonOperators(t *testing.T) {
	db := personnelDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"AGE = 28", 1}, {"AGE <> 28", 2}, {"AGE < 33", 1},
		{"AGE <= 33", 2}, {"AGE > 33", 1}, {"AGE >= 33", 2},
	}
	for _, tc := range cases {
		q, err := ParseQuery("SELECT E# FROM EMP WHERE " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Exec(db, q, nil)
		if err != nil || len(rows) != tc.want {
			t.Errorf("%s: %d rows, %v", tc.where, len(rows), err)
		}
	}
}

func TestBooleanConnectives(t *testing.T) {
	db := personnelDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"AGE > 30 AND AGE < 40", 1},
		{"AGE < 30 OR AGE > 40", 2},
		{"NOT AGE = 28", 2},
		{"(AGE = 28 OR AGE = 33) AND ENAME = 'CLARK'", 1},
	}
	for _, tc := range cases {
		q, err := ParseQuery("SELECT E# FROM EMP WHERE " + tc.where)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		rows, err := Exec(db, q, nil)
		if err != nil || len(rows) != tc.want {
			t.Errorf("%s: %d rows, %v", tc.where, len(rows), err)
		}
	}
}

func TestColumnToColumnComparison(t *testing.T) {
	db := relstore.NewDB(&schema.Relational{Name: "T", Relations: []*schema.Relation{
		{Name: "R", Columns: []schema.Column{
			{Name: "K", Kind: value.Int}, {Name: "A", Kind: value.Int}, {Name: "B", Kind: value.Int}},
			Key: []string{"K"}},
	}})
	db.Insert("R", value.FromPairs("K", 1, "A", 5, "B", 5))
	db.Insert("R", value.FromPairs("K", 2, "A", 5, "B", 6))
	q, _ := ParseQuery("SELECT K FROM R WHERE A = B")
	rows, err := Exec(db, q, nil)
	if err != nil || len(rows) != 1 || rows[0].MustGet("K").AsInt() != 1 {
		t.Errorf("%v %v", rows, err)
	}
}

func TestParameters(t *testing.T) {
	db := personnelDB(t)
	q, err := ParseQuery("SELECT ENAME FROM EMP WHERE AGE > :MINAGE")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Exec(db, q, Params{"MINAGE": value.Of(30)})
	if err != nil || len(rows) != 2 {
		t.Errorf("%v %v", rows, err)
	}
	if _, err := Exec(db, q, nil); err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Errorf("unbound: %v", err)
	}
}

func TestNullComparisons(t *testing.T) {
	db := relstore.NewDB(schema.SchoolRelational())
	db.Insert("COURSE", value.FromPairs("CNO", "C1", "CNAME", nil))
	q, _ := ParseQuery("SELECT CNO FROM COURSE WHERE CNAME = ''")
	rows, err := Exec(db, q, nil)
	if err != nil || len(rows) != 0 {
		t.Errorf("null should not match: %v %v", rows, err)
	}
	q, _ = ParseQuery("SELECT CNO FROM COURSE WHERE CNAME <> 'x'")
	rows, _ = Exec(db, q, nil)
	if len(rows) != 0 {
		t.Error("null should fail <> too")
	}
}

func TestNegativeNumberLiteral(t *testing.T) {
	db := personnelDB(t)
	q, err := ParseQuery("SELECT E# FROM EMP WHERE AGE > -1")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Exec(db, q, nil)
	if err != nil || len(rows) != 3 {
		t.Errorf("%v %v", rows, err)
	}
}

func TestFloatLiteral(t *testing.T) {
	q, err := ParseQuery("SELECT E# FROM EMP WHERE AGE > 2.5")
	if err != nil {
		t.Fatal(err)
	}
	cmp := q.Where.(Cmp)
	if cmp.Rhs.Lit.Kind() != value.Float {
		t.Error("2.5 should parse as float")
	}
}

// TestFloatLiteralRoundTrip: a rendered query reparses to the same
// literal kind and value, including floats with no fractional part and
// magnitudes %g would write with an exponent.
func TestFloatLiteralRoundTrip(t *testing.T) {
	for _, lit := range []string{"7.0", "1000000.0", "0.00001", "-7.0"} {
		q, err := ParseQuery("SELECT E# FROM EMP WHERE AGE > " + lit)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("%s: rendered query does not reparse: %v\n%s", lit, err, q)
		}
		a, b := q.Where.(Cmp).Rhs.Lit, q2.Where.(Cmp).Rhs.Lit
		if a.Kind() != value.Float || b.Kind() != value.Float || a.AsFloat() != b.AsFloat() {
			t.Errorf("%s: %v (%v) reparsed as %v (%v)", lit, a, a.Kind(), b, b.Kind())
		}
	}
}

func TestQueryStringRendering(t *testing.T) {
	q, err := ParseQuery("SELECT ENAME FROM EMP WHERE E# IN (SELECT E# FROM EMP-DEPT WHERE D# = 'D2' AND YEAR-OF-SERVICE = 3) OR AGE > :X")
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"SELECT ENAME FROM EMP", "E# IN (SELECT E# FROM EMP-DEPT",
		"AND YEAR-OF-SERVICE = 3", ":X", "OR"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q: %s", want, s)
		}
	}
	// Rendered queries re-parse (modulo parens).
	if _, err := ParseQuery(s); err != nil {
		t.Errorf("rendered query does not re-parse: %v\n%s", err, s)
	}
	q2, _ := ParseQuery("SELECT * FROM EMP")
	if q2.String() != "SELECT * FROM EMP" {
		t.Errorf("star rendering: %s", q2)
	}
	n, _ := ParseQuery("SELECT E# FROM EMP WHERE NOT AGE = 1")
	if !strings.Contains(n.String(), "(NOT AGE = 1)") {
		t.Errorf("NOT rendering: %s", n)
	}
}

func TestExecErrors(t *testing.T) {
	db := personnelDB(t)
	for _, src := range []string{
		"SELECT X FROM NOPE",
		"SELECT NOPE FROM EMP",
		"SELECT E# FROM EMP WHERE NOPE = 1",
	} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("%s should parse: %v", src, err)
		}
		if _, err := Exec(db, q, nil); err == nil {
			t.Errorf("%s should fail at exec", src)
		}
	}
	// Multi-column sub-select is rejected.
	q, _ := ParseQuery("SELECT E# FROM EMP WHERE E# IN (SELECT E#, D# FROM EMP-DEPT)")
	if _, err := Exec(db, q, nil); err == nil || !strings.Contains(err.Error(), "exactly one column") {
		t.Errorf("multi-column IN: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT",
		"SELECT E# EMP",
		"SELECT E# FROM EMP WHERE",
		"SELECT E# FROM EMP WHERE AGE !! 3",
		"SELECT E# FROM EMP WHERE (AGE = 1",
		"SELECT E# FROM EMP WHERE AGE = :",
		"FROB",
		"'unterminated",
	} {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("%q should not parse", src)
		}
	}
	if _, err := ParseQuery("SELECT E# FROM EMP JUNK"); err == nil {
		t.Error("trailing input")
	}
}

func TestInsertStatement(t *testing.T) {
	db := personnelDB(t)
	stmt, err := ParseStatement("INSERT INTO EMP (E#, ENAME, AGE) VALUES ('E9', 'NEW', :A)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if err := ExecInsert(db, ins, Params{"A": value.Of(20)}); err != nil {
		t.Fatal(err)
	}
	got, _ := db.FindByKey("EMP", value.Str("E9"))
	if got == nil || got.MustGet("AGE").AsInt() != 20 {
		t.Errorf("inserted = %v", got)
	}
	if !strings.Contains(ins.String(), "INSERT INTO EMP") {
		t.Error("Insert String")
	}
	// Missing columns arrive as null.
	stmt, _ = ParseStatement("INSERT INTO COURSE-OFFERING-X (A) VALUES (1)")
	if err := ExecInsert(db, stmt.(*Insert), nil); err == nil {
		t.Error("unknown relation insert")
	}
}

func TestInsertArityMismatch(t *testing.T) {
	if _, err := ParseStatement("INSERT INTO R (A, B) VALUES (1)"); err == nil {
		t.Error("arity mismatch should fail to parse")
	}
}

func TestDeleteStatement(t *testing.T) {
	db := personnelDB(t)
	stmt, err := ParseStatement("DELETE FROM EMP-DEPT WHERE D# = 'D2'")
	if err != nil {
		t.Fatal(err)
	}
	d := stmt.(*Delete)
	n, err := ExecDelete(db, d, nil)
	if err != nil || n != 2 {
		t.Errorf("deleted %d, %v", n, err)
	}
	if !strings.Contains(d.String(), "DELETE FROM EMP-DEPT WHERE") {
		t.Error("Delete String")
	}
	// Unconditional delete.
	stmt, _ = ParseStatement("DELETE FROM EMP-DEPT")
	n, err = ExecDelete(db, stmt.(*Delete), nil)
	if err != nil || n != 1 {
		t.Errorf("unconditional delete: %d, %v", n, err)
	}
}

func TestUpdateStatement(t *testing.T) {
	db := personnelDB(t)
	stmt, err := ParseStatement("UPDATE EMP SET AGE = :NEW, ENAME = 'X' WHERE E# = 'E1'")
	if err != nil {
		t.Fatal(err)
	}
	u := stmt.(*Update)
	n, err := ExecUpdate(db, u, Params{"NEW": value.Of(29)})
	if err != nil || n != 1 {
		t.Fatalf("updated %d, %v", n, err)
	}
	got, _ := db.FindByKey("EMP", value.Str("E1"))
	if got.MustGet("AGE").AsInt() != 29 || got.MustGet("ENAME").AsString() != "X" {
		t.Errorf("row = %v", got)
	}
	if !strings.Contains(u.String(), "UPDATE EMP SET AGE = :NEW, ENAME = 'X'") {
		t.Error("Update String")
	}
}

func TestUpdateColumnFromColumn(t *testing.T) {
	db := personnelDB(t)
	stmt, _ := ParseStatement("UPDATE EMP-DEPT SET YEAR-OF-SERVICE = AGE WHERE E# = 'E1'")
	// AGE is not a column of EMP-DEPT: operand eval fails.
	if _, err := ExecUpdate(db, stmt.(*Update), nil); err == nil {
		t.Error("unknown rhs column should fail")
	}
}

func TestExecStatementErrors(t *testing.T) {
	db := personnelDB(t)
	d := &Delete{From: "NOPE"}
	if _, err := ExecDelete(db, d, nil); err == nil {
		t.Error("delete unknown relation")
	}
	u := &Update{Rel: "NOPE"}
	if _, err := ExecUpdate(db, u, nil); err == nil {
		t.Error("update unknown relation")
	}
	// Where eval error propagates.
	d2 := &Delete{From: "EMP", Where: Cmp{Col: "NOPE", Op: "=", Rhs: Lit(value.Of(1))}}
	if _, err := ExecDelete(db, d2, nil); err == nil {
		t.Error("delete bad where")
	}
	u2 := &Update{Rel: "EMP", Set: []Assign{{Col: "AGE", Rhs: Param("MISSING")}},
		Where: Cmp{Col: "E#", Op: "=", Rhs: Lit(value.Str("E1"))}}
	if _, err := ExecUpdate(db, u2, nil); err == nil {
		t.Error("update unbound param in set")
	}
}

func TestParseStatementDispatchErrors(t *testing.T) {
	if _, err := ParseStatement("GRANT ALL"); err == nil {
		t.Error("unknown statement")
	}
	if _, err := ParseStatement("DELETE FROM R JUNK EXTRA ("); err == nil {
		t.Error("trailing junk")
	}
	if _, err := ParseStatement("'bad"); err == nil {
		t.Error("lex error")
	}
}

func TestSubqueryMemoization(t *testing.T) {
	// The sub-select is uncorrelated; memoization means one execution no
	// matter how many outer rows. Verify by behaviour: results stay right
	// with many outer rows.
	db := personnelDB(t)
	for i := 0; i < 50; i++ {
		db.Insert("EMP", value.FromPairs("E#", value.Str("X"+string(rune('A'+i%26))+string(rune('A'+i/26))), "ENAME", "F", "AGE", 1))
	}
	q, _ := ParseQuery("SELECT ENAME FROM EMP WHERE E# IN (SELECT E# FROM EMP-DEPT WHERE YEAR-OF-SERVICE = 3)")
	rows, err := Exec(db, q, nil)
	if err != nil || len(rows) != 2 {
		t.Errorf("%d rows, %v", len(rows), err)
	}
}
