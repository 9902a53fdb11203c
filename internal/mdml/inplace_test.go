package mdml_test

// The evaluator reads qualification fields and sort keys in place
// (DB.Field) instead of resolving a whole record per candidate. These
// tests hold it to the materialising reference below — DB.Data for
// every candidate, value.SortRecords for SORT — and bound the
// allocations the in-place path makes.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/mdml"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// refEval runs a FIND the materialising way: each candidate of a
// qualified step is resolved to a full record through DB.Data and the
// qualification tests that record.
func refEval(db *netstore.DB, colls map[string][]netstore.RecordID, params map[string]value.Value, f *mdml.Find) ([]netstore.RecordID, error) {
	sch := db.Schema()
	if sch.Record(f.Target) == nil {
		return nil, fmt.Errorf("mdml: unknown target record type %s", f.Target)
	}
	if len(f.Steps) == 0 {
		return nil, fmt.Errorf("mdml: empty access path")
	}
	f, err := f.Classified(
		func(n string) bool { return sch.Set(n) != nil },
		func(n string) bool { return sch.Record(n) != nil },
	)
	if err != nil {
		return nil, err
	}
	var current []netstore.RecordID
	sawSystem := false
	for i, step := range f.Steps {
		switch step.Kind {
		case mdml.SystemStep:
			if i != 0 {
				return nil, fmt.Errorf("mdml: SYSTEM must begin the path")
			}
			sawSystem = true
		case mdml.CollectionStep:
			if i != 0 {
				return nil, fmt.Errorf("mdml: collection %s must begin the path", step.Name)
			}
			coll, ok := colls[step.Name]
			if !ok {
				return nil, fmt.Errorf("mdml: unknown collection %s", step.Name)
			}
			current = append([]netstore.RecordID(nil), coll...)
		case mdml.SetStep:
			set := sch.Set(step.Name)
			if set == nil {
				return nil, fmt.Errorf("mdml: unknown set %s", step.Name)
			}
			if i == 1 && sawSystem {
				if !set.IsSystem() {
					return nil, fmt.Errorf("mdml: set %s after SYSTEM is not SYSTEM-owned", step.Name)
				}
				current = db.SystemMembers(step.Name)
				continue
			}
			var next []netstore.RecordID
			seen := make(map[netstore.RecordID]bool)
			for _, owner := range current {
				if db.TypeOf(owner) != set.Owner {
					return nil, fmt.Errorf("mdml: set %s cannot be traversed from %s records",
						step.Name, db.TypeOf(owner))
				}
				for _, m := range db.Members(step.Name, owner) {
					if !seen[m] {
						seen[m] = true
						next = append(next, m)
					}
				}
			}
			current = next
		case mdml.RecordStep:
			if sch.Record(step.Name) == nil {
				return nil, fmt.Errorf("mdml: unknown record type %s", step.Name)
			}
			var next []netstore.RecordID
			for _, id := range current {
				if db.TypeOf(id) != step.Name {
					return nil, fmt.Errorf("mdml: path yields %s records where %s expected",
						db.TypeOf(id), step.Name)
				}
				if step.Qual != nil {
					keep, err := step.Qual.Eval(db.Data(id), params)
					if err != nil {
						return nil, err
					}
					if !keep {
						continue
					}
				}
				next = append(next, id)
			}
			current = next
		}
	}
	last := f.Steps[len(f.Steps)-1]
	if last.Kind != mdml.RecordStep || last.Name != f.Target {
		return nil, fmt.Errorf("mdml: path must end at the target record type %s", f.Target)
	}
	return current, nil
}

// refSort orders a collection the materialising way: every record is
// resolved through DB.Data and value.SortRecords orders the records.
func refSort(db *netstore.DB, ids []netstore.RecordID, on []string) ([]netstore.RecordID, error) {
	recs := make([]*value.Record, len(ids))
	order := make(map[*value.Record]netstore.RecordID, len(ids))
	for i, id := range ids {
		rec := db.Data(id)
		if rec == nil {
			return nil, fmt.Errorf("mdml: stale record %d in collection", id)
		}
		for _, f := range on {
			if !rec.Has(f) {
				return nil, fmt.Errorf("mdml: sort field %s not in record", f)
			}
		}
		recs[i] = rec
		order[rec] = id
	}
	value.SortRecords(recs, on)
	out := make([]netstore.RecordID, len(recs))
	for i, r := range recs {
		out[i] = order[r]
	}
	return out, nil
}

// propSchema has stored String, Int and Float fields, one-level
// (DEPT.DIV-NAME, EMP.DEPT-NAME) and two-level (EMP.DIV-NAME) virtuals,
// and an OPTIONAL DEPT-EMP, so a disconnected EMP's virtuals read null.
// No set is keyed: equal sort keys keep collection order.
func propSchema() *schema.Network {
	return &schema.Network{
		Name: "PROP",
		Records: []*schema.RecordType{
			{Name: "DIV", Fields: []schema.Field{
				{Name: "DIV-NAME", Kind: value.String},
				{Name: "BUDGET", Kind: value.Float},
			}},
			{Name: "DEPT", Fields: []schema.Field{
				{Name: "DEPT-NAME", Kind: value.String},
				{Name: "DIV-NAME", Virtual: &schema.Virtual{ViaSet: "DIV-DEPT", Using: "DIV-NAME"}},
			}},
			{Name: "EMP", Fields: []schema.Field{
				{Name: "EMP-NAME", Kind: value.String},
				{Name: "AGE", Kind: value.Int},
				{Name: "PAY", Kind: value.Float},
				{Name: "DEPT-NAME", Virtual: &schema.Virtual{ViaSet: "DEPT-EMP", Using: "DEPT-NAME"}},
				{Name: "DIV-NAME", Virtual: &schema.Virtual{ViaSet: "DEPT-EMP", Using: "DIV-NAME"}},
			}},
		},
		Sets: []*schema.SetType{
			{Name: "ALL-DIV", Owner: schema.SystemOwner, Member: "DIV"},
			{Name: "ALL-EMP", Owner: schema.SystemOwner, Member: "EMP"},
			{Name: "DIV-DEPT", Owner: "DIV", Member: "DEPT", Insertion: schema.Automatic, Retention: schema.Mandatory},
			{Name: "DEPT-EMP", Owner: "DEPT", Member: "EMP", Insertion: schema.Automatic, Retention: schema.Optional},
		},
	}
}

// pick returns one of vs at random.
func pick[T any](rng *rand.Rand, vs ...T) T { return vs[rng.Intn(len(vs))] }

// randValue draws from a small pool of every kind, so equal values,
// nulls and Int/Float/String mixes are all common.
func randValue(rng *rand.Rand) value.Value {
	return pick(rng, value.NullValue(), value.Of(20), value.Of(22), value.Of(25),
		value.F(21.5), value.F(22), value.F(3), value.Str("A"), value.Str("B"), value.Str("SALES"))
}

// propDB populates propSchema at random and returns the database and
// the IDs of the records it erased again (stale from then on).
func propDB(t *testing.T, rng *rand.Rand) (*netstore.DB, []netstore.RecordID) {
	t.Helper()
	db := netstore.NewDB(propSchema())
	s := netstore.NewSession(db)
	store := func(typ string, rec *value.Record) netstore.RecordID {
		id, st, err := s.Store(typ, rec)
		if err != nil || st != netstore.OK {
			t.Fatalf("store %s: %v %v", typ, st, err)
		}
		return id
	}
	names := []string{"A", "B", "SALES"}
	var emps, depts []netstore.RecordID
	for d := rng.Intn(4); d >= 0; d-- {
		budget := pick(rng, value.NullValue(), value.F(1.5), value.F(2))
		div := store("DIV", value.FromPairs("DIV-NAME", pick(rng, names...), "BUDGET", budget))
		for n := rng.Intn(4); n > 0; n-- {
			s.Position(div)
			dept := store("DEPT", value.FromPairs("DEPT-NAME", pick(rng, names...)))
			depts = append(depts, dept)
			for m := rng.Intn(6); m > 0; m-- {
				s.Position(dept)
				age := pick(rng, value.NullValue(), value.Of(20), value.Of(22), value.Of(25))
				pay := pick(rng, value.NullValue(), value.F(21.5), value.F(22), value.F(3))
				emps = append(emps, store("EMP", value.FromPairs(
					"EMP-NAME", pick(rng, names...), "AGE", age, "PAY", pay)))
			}
		}
	}
	for _, id := range emps {
		if rng.Intn(5) == 0 {
			s.Position(id)
			if st, err := s.Disconnect("DEPT-EMP"); err != nil || st != netstore.OK {
				t.Fatalf("disconnect: %v %v", st, err)
			}
		}
	}
	var erased []netstore.RecordID
	for _, id := range append(emps, depts...) {
		if rng.Intn(8) == 0 && db.Exists(id) {
			typ := db.TypeOf(id)
			s.Position(id)
			if st, err := s.Erase(typ); err != nil || st != netstore.OK {
				t.Fatalf("erase %s: %v %v", typ, st, err)
			}
			erased = append(erased, id)
		}
	}
	return db, erased
}

// randQual builds a qualification over fields (plus an unknown one) with
// literal and :PARAM operands, including an unbound parameter.
func randQual(rng *rand.Rand, fields []string, depth int) mdml.Qual {
	if depth > 0 {
		switch rng.Intn(5) {
		case 0:
			return mdml.And{L: randQual(rng, fields, depth-1), R: randQual(rng, fields, depth-1)}
		case 1:
			return mdml.Or{L: randQual(rng, fields, depth-1), R: randQual(rng, fields, depth-1)}
		case 2:
			return mdml.Not{Q: randQual(rng, fields, depth-1)}
		}
	}
	field := pick(rng, fields...)
	if rng.Intn(20) == 0 {
		field = "NOPE"
	}
	c := mdml.Cmp{Field: field, Op: pick(rng, "=", "<>", "<", "<=", ">", ">=")}
	if rng.Intn(4) == 0 {
		c.Param = pick(rng, "P1", "P2", "P2", "UNBOUND")
	} else {
		c.Lit = randValue(rng)
	}
	return c
}

var propFields = map[string][]string{
	"DIV":  {"DIV-NAME", "BUDGET"},
	"DEPT": {"DEPT-NAME", "DIV-NAME"},
	"EMP":  {"EMP-NAME", "AGE", "PAY", "DEPT-NAME", "DIV-NAME"},
}

// randFind draws an access path over propSchema with random
// qualifications on its record steps.
func randFind(rng *rand.Rand) *mdml.Find {
	rec := func(name string) mdml.Step {
		st := mdml.Step{Kind: mdml.RecordStep, Name: name}
		if rng.Intn(4) != 0 {
			st.Qual = randQual(rng, propFields[name], 2)
		}
		return st
	}
	sys := mdml.Step{Kind: mdml.SystemStep}
	set := func(name string) mdml.Step { return mdml.Step{Kind: mdml.SetStep, Name: name} }
	switch rng.Intn(4) {
	case 0:
		return &mdml.Find{Target: "EMP", Steps: []mdml.Step{sys, set("ALL-EMP"), rec("EMP")}}
	case 1:
		return &mdml.Find{Target: "EMP", Steps: []mdml.Step{
			sys, set("ALL-DIV"), rec("DIV"), set("DIV-DEPT"), rec("DEPT"), set("DEPT-EMP"), rec("EMP")}}
	case 2:
		return &mdml.Find{Target: "DEPT", Steps: []mdml.Step{
			sys, set("ALL-DIV"), rec("DIV"), set("DIV-DEPT"), rec("DEPT")}}
	default:
		return &mdml.Find{Target: "EMP", Steps: []mdml.Step{{Kind: mdml.CollectionStep, Name: "C"}, rec("EMP")}}
	}
}

// errText renders an error for comparison ("" for none).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestInPlaceMatchesMaterialising: on random databases, qualifications,
// parameter bindings and sort lists, the in-place FIND and SORT return
// the IDs, order and error text of the materialising reference.
func TestInPlaceMatchesMaterialising(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, erased := propDB(t, rng)
		e := mdml.NewEvaluator(db)
		e.Params["P1"] = randValue(rng)
		e.Params["P2"] = randValue(rng)
		all := db.SystemMembers("ALL-EMP")
		coll := append([]netstore.RecordID(nil), all...)
		if rng.Intn(4) == 0 && len(erased) > 0 {
			coll = append(coll, pick(rng, erased...))
		}
		rng.Shuffle(len(coll), func(i, j int) { coll[i], coll[j] = coll[j], coll[i] })
		e.Collections["C"] = coll

		for q := 0; q < 10; q++ {
			f := randFind(rng)
			got, gotErr := e.Eval(f)
			want, wantErr := refEval(db, e.Collections, e.Params, f)
			if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s\n in place: %v %v\nreference: %v %v", seed, f, got, gotErr, want, wantErr)
			}

			ids := got
			if rng.Intn(3) == 0 {
				ids = append(append([]netstore.RecordID(nil), all...), all...) // duplicates tie with themselves
			}
			if rng.Intn(10) == 0 && len(erased) > 0 {
				ids = append(append([]netstore.RecordID(nil), ids...), pick(rng, erased...))
			}
			on := make([]string, 1+rng.Intn(3))
			for i := range on {
				on[i] = pick(rng, "AGE", "PAY", "EMP-NAME", "DEPT-NAME", "DIV-NAME", "DIV-NAME", "BUDGET")
			}
			got, gotErr = e.SortIDs(ids, on)
			want, wantErr = refSort(db, ids, on)
			if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: SORT %v ON %v\n in place: %v %v\nreference: %v %v", seed, ids, on, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestFieldMatchesData: DB.Field agrees with DB.Data on every field of
// every record, stored or virtual, connected or not, and reports
// ok=false exactly where Data is nil or lacks the field.
func TestFieldMatchesData(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		db, erased := propDB(t, rand.New(rand.NewSource(seed)))
		ids := append(append(db.AllOf("DIV"), db.AllOf("DEPT")...), db.AllOf("EMP")...)
		for _, id := range append(ids, erased...) {
			rec := db.Data(id)
			for _, name := range []string{"DIV-NAME", "BUDGET", "DEPT-NAME", "EMP-NAME", "AGE", "PAY", "NOPE"} {
				got, ok := db.Field(id, name)
				var want value.Value
				wantOK := rec != nil
				if wantOK {
					want, wantOK = rec.Get(name)
				}
				if ok != wantOK || got != want {
					t.Fatalf("seed %d: Field(%d, %s) = %v %v, Data has %v %v", seed, id, name, got, ok, want, wantOK)
				}
			}
		}
	}
}

// TestFindAndSortAllocations bounds the allocations of a qualified FIND
// and a SORT over 2,400 EMP records. Resolving a record per candidate
// cost one map and one names slice per record (over 14,000 and 25,000
// allocations); reading in place leaves only the result slices, the
// dedup set and the sort keys.
func TestFindAndSortAllocations(t *testing.T) {
	db := corpus.Database(corpus.Profile{Seed: 1, Divisions: 10, DeptsPerDiv: 6, EmpsPerDept: 40})
	if n := db.Count("EMP"); n != 2400 {
		t.Fatalf("EMP count = %d, want 2400", n)
	}
	e := mdml.NewEvaluator(db)
	find, err := mdml.ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30 AND DEPT-NAME <> 'D-03'))")
	if err != nil {
		t.Fatal(err)
	}
	srt, err := mdml.ParseSortOrFind("SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)) ON (AGE, EMP-NAME)")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 100
	for _, tc := range []struct {
		name string
		run  func() ([]netstore.RecordID, error)
	}{
		{"FIND", func() ([]netstore.RecordID, error) { return e.Eval(find) }},
		{"SORT", func() ([]netstore.RecordID, error) { return e.EvalSort(srt.(*mdml.Sort)) }},
	} {
		if _, err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(5, func() { tc.run() })
		if allocs >= limit {
			t.Errorf("%s over 2,400 EMP: %.0f allocations, want < %d", tc.name, allocs, limit)
		}
	}
}
