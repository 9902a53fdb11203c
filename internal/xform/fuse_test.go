package xform

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// dumpDB renders a database canonically — schema DDL, every occurrence
// (virtuals resolved) in ID order, every set occurrence's member list —
// so two migrations can be compared byte for byte.
func dumpDB(db *netstore.DB) string {
	var b strings.Builder
	sch := db.Schema()
	b.WriteString(sch.DDL())
	for _, r := range sch.Records {
		fmt.Fprintf(&b, "== %s ==\n", r.Name)
		for _, id := range db.AllOf(r.Name) {
			fmt.Fprintf(&b, "#%d %s\n", id, db.Data(id).String())
		}
	}
	for _, s := range sch.Sets {
		fmt.Fprintf(&b, "set %s\n", s.Name)
		owners := []netstore.RecordID{netstore.OwnerSystem}
		if !s.IsSystem() {
			owners = db.AllOf(s.Owner)
		}
		for _, o := range owners {
			fmt.Fprintf(&b, "  %d -> %v\n", o, db.Members(s.Name, o))
		}
	}
	return b.String()
}

// fourStepFusiblePlan is the benchmark/byte-identity fixture: four
// per-record mapping steps that must fuse into one pass.
func fourStepFusiblePlan() *Plan {
	return &Plan{Steps: []Transformation{
		RenameRecord{Old: "EMP", New: "EMPLOYEE"},
		RenameField{Record: "DIV", Old: "DIV-LOC", New: "LOCATION"},
		AddField{Record: "EMPLOYEE", Field: "STATUS", Kind: value.String, Default: value.Str("ACTIVE")},
		RenameSet{Old: "DIV-EMP", New: "DIV-EMPLOYEE"},
	}}
}

// TestFusedMigrationByteIdenticalToStepwise proves the migration engine's
// fused single pass produces exactly the database the stepwise chain
// does, record IDs included.
func TestFusedMigrationByteIdenticalToStepwise(t *testing.T) {
	src := companyV1DB(t)
	p := fourStepFusiblePlan()

	fused, stats, err := p.Migrate(context.Background(), src, MigrateOptions{})
	if err != nil {
		t.Fatalf("fused: %v", err)
	}
	stepwise, err := migrateStepwise(p, src)
	if err != nil {
		t.Fatalf("stepwise: %v", err)
	}
	if stats.FusedSteps != 4 || stats.StepwiseSteps != 0 || stats.Passes != 1 {
		t.Fatalf("fuse stats = %+v, want 4 fused steps in 1 pass", stats)
	}
	if got, want := dumpDB(fused), dumpDB(stepwise); got != want {
		t.Fatalf("fused migration diverged from stepwise:\n--- fused ---\n%s\n--- stepwise ---\n%s", got, want)
	}
}

// TestFusedMigrationBailsOutAroundIntermediates pins the fusion rules on
// a mixed plan: runs of mapping steps fuse, the structural
// IntroduceIntermediate step runs its own pass, and a trailing run of
// length one gains nothing and stays stepwise.
func TestFusedMigrationBailsOutAroundIntermediates(t *testing.T) {
	src := companyV1DB(t)
	p := &Plan{Steps: []Transformation{
		RenameField{Record: "DIV", Old: "DIV-LOC", New: "LOCATION"},
		AddField{Record: "DIV", Field: "REGION", Kind: value.String, Default: value.Str("NA")},
		figure42to44(),
		RenameRecord{Old: "EMP", New: "EMPLOYEE"},
	}}

	fused, stats, err := p.Migrate(context.Background(), src, MigrateOptions{})
	if err != nil {
		t.Fatalf("fused: %v", err)
	}
	stepwise, err := migrateStepwise(p, src)
	if err != nil {
		t.Fatalf("stepwise: %v", err)
	}
	if stats.FusedSteps != 2 || stats.StepwiseSteps != 2 || stats.Passes != 3 {
		t.Fatalf("fuse stats = %+v, want 2 fused steps, 2 stepwise steps, 3 passes", stats)
	}
	if got, want := dumpDB(fused), dumpDB(stepwise); got != want {
		t.Fatalf("mixed-plan fusion diverged from stepwise:\n--- fused ---\n%s\n--- stepwise ---\n%s", got, want)
	}
}

// TestFusedMigrationRandomizedContent re-proves byte identity over
// seeded random databases, including disconnected records under a
// MANUAL/OPTIONAL set (memberships must map — or vanish — identically).
func TestFusedMigrationRandomizedContent(t *testing.T) {
	base := schema.CompanyV1()
	base.Set("DIV-EMP").Insertion = schema.Manual
	base.Set("DIV-EMP").Retention = schema.Optional
	for _, seed := range []int64{31, 32, 33} {
		rng := rand.New(rand.NewSource(seed))
		db := netstore.NewDB(base.Clone())
		s := netstore.NewSession(db)
		nDiv := 3 + rng.Intn(4)
		for d := 0; d < nDiv; d++ {
			s.Store("DIV", value.FromPairs(
				"DIV-NAME", fmt.Sprintf("DIV-%02d", d),
				"DIV-LOC", fmt.Sprintf("L%d", rng.Intn(4))))
		}
		for e := 0; e < 120; e++ {
			s.Store("EMP", value.FromPairs(
				"EMP-NAME", fmt.Sprintf("E-%04d", e),
				"DEPT-NAME", fmt.Sprintf("D%d", rng.Intn(5)),
				"AGE", 20+rng.Intn(45)))
			if rng.Intn(3) > 0 { // two thirds get connected, the rest float free
				s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%02d", rng.Intn(nDiv))))
				s.FindAny("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", e)))
				s.Connect("DIV-EMP")
			}
		}

		p := fourStepFusiblePlan()
		fused, _, err := p.Migrate(context.Background(), db, MigrateOptions{})
		if err != nil {
			t.Fatalf("seed %d fused: %v", seed, err)
		}
		stepwise, err := migrateStepwise(p, db)
		if err != nil {
			t.Fatalf("seed %d stepwise: %v", seed, err)
		}
		if got, want := dumpDB(fused), dumpDB(stepwise); got != want {
			t.Fatalf("seed %d: fused migration diverged from stepwise", seed)
		}
	}
}
