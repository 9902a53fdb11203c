package main

// The output oracle. It knows nothing of how the converter works: the
// expected dispositions come from the generator's program class and
// the plan shape, and migrated databases are checked against the
// generated population, never against another conversion.

import (
	"fmt"
	"math/rand"

	"progconv/internal/corpus"
	"progconv/internal/netstore"
	"progconv/internal/value"
	"progconv/internal/wire"
)

// expectedDisposition is the table of what each generated class must
// convert to under each plan shape. Under the V2 split the unpinned
// sweeps (order), input-steered DML (rtv), stores through the split
// member (view update) and FIND FIRST without a sweep (process first)
// need a programmer; under the four-step rename/add-field plan only
// run-time variability does.
func expectedDisposition(planShape string, k corpus.Kind) string {
	switch planShape {
	case shapeSplit:
		switch k {
		case corpus.HazardOrder, corpus.HazardRTV, corpus.HazardViewUpdate, corpus.WarnProcessFirst:
			return "manual"
		}
	case shapeFourStep:
		if k == corpus.HazardRTV {
			return "manual"
		}
	}
	return "auto"
}

// checkReport checks one conversion report against the generated
// inventory: one outcome per program in submission order, each at its
// class's expected disposition, nothing failed, and — when a database
// was given — every automatic conversion verified equal.
func checkReport(planShape string, progs []genProgram, r *wire.Report, verified bool) error {
	if len(r.Outcomes) != len(progs) {
		return fmt.Errorf("report has %d outcomes for %d programs", len(r.Outcomes), len(progs))
	}
	if r.Failed != 0 {
		return fmt.Errorf("report counts %d failed programs", r.Failed)
	}
	for i, o := range r.Outcomes {
		p := progs[i]
		if o.Name != p.Name {
			return fmt.Errorf("outcome %d is %s, submitted %s", i, o.Name, p.Name)
		}
		if want := expectedDisposition(planShape, p.Kind); o.Disposition != want {
			return fmt.Errorf("%s (%s) under %s: disposition %s, want %s", p.Name, p.Kind, planShape, o.Disposition, want)
		}
		if verified && o.Disposition == "auto" {
			if o.Verified == nil {
				return fmt.Errorf("%s: automatic conversion was not verified", p.Name)
			}
			if !o.Verified.Equal {
				return fmt.Errorf("%s: verification found unequal I/O: %s", p.Name, o.Verified.Detail)
			}
		}
	}
	return nil
}

// migrationSample is how many employees checkMigration looks up.
const migrationSample = 32

// checkMigration checks a migrated database against the population it
// was loaded from: record counts per type, and a seeded sample of
// employees found by key whose fields and owners must match the
// generated input.
func checkMigration(planShape string, pop *population, db *netstore.DB, seed int64) error {
	empType, divSet, locField := "EMPLOYEE", "DIV-EMPLOYEE", "LOCATION"
	want := map[string]int{"DIV": len(pop.Divs), "EMPLOYEE": len(pop.Emps)}
	if planShape == shapeSplit {
		empType, divSet, locField = "EMP", "DIV-DEPT", "DIV-LOC"
		depts := map[[2]string]bool{}
		for _, e := range pop.Emps {
			depts[[2]string{pop.Divs[e.Div].Name, e.Dept}] = true
		}
		want = map[string]int{"DIV": len(pop.Divs), "DEPT": len(depts), "EMP": len(pop.Emps)}
	}
	total := 0
	for typ, n := range want {
		if got := db.Count(typ); got != n {
			return fmt.Errorf("%s: %d records, want %d", typ, got, n)
		}
		total += n
	}
	if db.Len() != total {
		return fmt.Errorf("database holds %d records, want %d", db.Len(), total)
	}

	s := netstore.NewSession(db)
	for _, k := range sampleEmployees(pop, seed) {
		e := pop.Emps[k]
		div := pop.Divs[e.Div]
		if st, err := s.FindAny(empType, value.FromPairs("EMP-NAME", e.Name)); err != nil || st != netstore.OK {
			return fmt.Errorf("%s %s: not found by key (%v, %v)", empType, e.Name, st, err)
		}
		id := s.Current()
		data := db.Data(id)
		if err := fieldIs(data, "AGE", value.Of(int64(e.Age))); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := fieldIs(data, "DEPT-NAME", value.Str(e.Dept)); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		owner := id
		if planShape == shapeSplit {
			dept, ok := db.OwnerOf("DEPT-EMP", id)
			if !ok {
				return fmt.Errorf("%s: no DEPT-EMP owner", e.Name)
			}
			if err := fieldIs(db.Data(dept), "DEPT-NAME", value.Str(e.Dept)); err != nil {
				return fmt.Errorf("%s's department: %w", e.Name, err)
			}
			owner = dept
		} else if err := fieldIs(data, "STATUS", value.Str("ACTIVE")); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		divID, ok := db.OwnerOf(divSet, owner)
		if !ok {
			return fmt.Errorf("%s: no %s owner", e.Name, divSet)
		}
		divData := db.Data(divID)
		if err := fieldIs(divData, "DIV-NAME", value.Str(div.Name)); err != nil {
			return fmt.Errorf("%s's division: %w", e.Name, err)
		}
		if err := fieldIs(divData, locField, value.Str(div.Loc)); err != nil {
			return fmt.Errorf("%s's division: %w", e.Name, err)
		}
	}
	return nil
}

// sampleEmployees picks the seeded sample of employees (indices into
// pop.Emps) checkMigration looks up.
func sampleEmployees(pop *population, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, migrationSample)
	for i := range out {
		out[i] = rng.Intn(len(pop.Emps))
	}
	return out
}

func fieldIs(rec *value.Record, field string, want value.Value) error {
	if rec == nil {
		return fmt.Errorf("record missing")
	}
	got, ok := rec.Get(field)
	if !ok || !got.Equal(want) {
		return fmt.Errorf("%s = %s, want %s", field, got, want)
	}
	return nil
}
