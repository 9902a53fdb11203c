package xform

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// randomCompanyDB builds a seeded random CompanyV1 population with a
// MANUAL/OPTIONAL DIV-EMP set, so a third of the employees float free
// of any set occurrence — the memberships must map (or vanish)
// identically across migration paths.
func randomCompanyDB(t *testing.T, seed int64) *netstore.DB {
	t.Helper()
	base := schema.CompanyV1()
	base.Set("DIV-EMP").Insertion = schema.Manual
	base.Set("DIV-EMP").Retention = schema.Optional
	rng := rand.New(rand.NewSource(seed))
	db := netstore.NewDB(base.Clone())
	s := netstore.NewSession(db)
	nDiv := 3 + rng.Intn(4)
	for d := 0; d < nDiv; d++ {
		s.Store("DIV", value.FromPairs(
			"DIV-NAME", fmt.Sprintf("DIV-%02d", d),
			"DIV-LOC", fmt.Sprintf("L%d", rng.Intn(4))))
	}
	nEmp := 100 + rng.Intn(120)
	for e := 0; e < nEmp; e++ {
		s.Store("EMP", value.FromPairs(
			"EMP-NAME", fmt.Sprintf("E-%04d", e),
			"DEPT-NAME", fmt.Sprintf("D%d", rng.Intn(5)),
			"AGE", 20+rng.Intn(45)))
		if rng.Intn(3) > 0 {
			s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%02d", rng.Intn(nDiv))))
			s.FindAny("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", e)))
			s.Connect("DIV-EMP")
		}
	}
	return db
}

// figure44to42 collapses the Figure 4.4 chain back into DIV-EMP.
func figure44to42() CollapseIntermediate {
	return CollapseIntermediate{Upper: "DIV-DEPT", Lower: "DEPT-EMP", GroupField: "DEPT-NAME", NewSet: "DIV-EMP"}
}

// planTemplates is the randomized-plan pool: all-fusible runs, a mixed
// plan around the paper's flagship structural step, a lossy plan with
// drops, and the structural steps alone and as a split → collapse round
// trip — every per-record shape the sharded rebuild must handle.
func planTemplates() map[string]*Plan {
	return map[string]*Plan{
		"fused-run": fourStepFusiblePlan(),
		"mixed-structural": {Steps: []Transformation{
			RenameField{Record: "DIV", Old: "DIV-LOC", New: "LOCATION"},
			AddField{Record: "DIV", Field: "REGION", Kind: value.String, Default: value.Str("NA")},
			figure42to44(),
			RenameRecord{Old: "EMP", New: "EMPLOYEE"},
		}},
		"lossy-drops": {Steps: []Transformation{
			DropField{Record: "EMP", Field: "AGE"},
			RenameSet{Old: "DIV-EMP", New: "STAFF"},
			AddField{Record: "EMP", Field: "GRADE", Kind: value.Int, Default: value.Of(1)},
		}},
		"lone-step": {Steps: []Transformation{
			RenameRecord{Old: "EMP", New: "WORKER"},
		}},
		"lone-introduce": {Steps: []Transformation{figure42to44()}},
		"split-collapse": {Steps: []Transformation{figure42to44(), figure44to42()}},
	}
}

// TestParallelMigrateByteIdentical is the property test: randomized
// databases × randomized plans × shard counts {1, 2, 8}, with the
// parallel migration compared byte for byte — record IDs, set
// orderings, index buckets, index counters — against the serial
// stepwise oracle. Each invertible plan's InversePlan (the bridge's
// reverse mapping) is one more input, run against the migrated
// database.
func TestParallelMigrateByteIdentical(t *testing.T) {
	// check compares p's migration of src at every shard count with the
	// stepwise oracle's, and returns the oracle's database.
	check := func(name string, seed int64, p *Plan, src *netstore.DB) *netstore.DB {
		t.Helper()
		want, err := migrateStepwise(p, src)
		if err != nil {
			t.Fatalf("%s seed %d stepwise: %v", name, seed, err)
		}
		wantDump, wantIdx := dumpDB(want), want.IndexDump()
		wantProbes, wantScans := want.IndexStatsOf().Snapshot()
		for _, par := range []int{1, 2, 8} {
			got, stats, err := p.Migrate(context.Background(), src, MigrateOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("%s seed %d par %d: %v", name, seed, par, err)
			}
			if d := dumpDB(got); d != wantDump {
				t.Fatalf("%s seed %d par %d: database diverges from stepwise:\n--- parallel ---\n%s\n--- stepwise ---\n%s",
					name, seed, par, d, wantDump)
			}
			if ix := got.IndexDump(); ix != wantIdx {
				t.Fatalf("%s seed %d par %d: indexes diverge:\n--- parallel ---\n%s\n--- stepwise ---\n%s",
					name, seed, par, ix, wantIdx)
			}
			if p, s := got.IndexStatsOf().Snapshot(); p != wantProbes || s != wantScans {
				t.Errorf("%s seed %d par %d: index stats (%d, %d), want (%d, %d)",
					name, seed, par, p, s, wantProbes, wantScans)
			}
			if stats.Shards < 1 {
				t.Errorf("%s seed %d par %d: stats.Shards = %d", name, seed, par, stats.Shards)
			}
			if stats.BulkRecords < 1 {
				t.Errorf("%s seed %d par %d: stats.BulkRecords = %d", name, seed, par, stats.BulkRecords)
			}
		}
		return want
	}
	for name, p := range planTemplates() {
		for _, seed := range []int64{41, 42, 43} {
			src := randomCompanyDB(t, seed)
			migrated := check(name, seed, p, src)
			if !p.Invertible() {
				continue
			}
			inv, err := p.InversePlan(src.Schema())
			if err != nil {
				t.Fatalf("%s seed %d inverse: %v", name, seed, err)
			}
			check(name+" inverse", seed, inv, migrated)
		}
	}
}

// TestParallelMigrateShardStats pins the shard accounting: a type with
// over minShardRecords records fans out when parallelism allows, and
// the bulk-record counter equals the records the rebuild passes stored.
func TestParallelMigrateShardStats(t *testing.T) {
	src := randomCompanyDB(t, 44) // >= 100 EMPs: enough for 2+ shards
	p := fourStepFusiblePlan()

	_, serialStats, err := p.Migrate(context.Background(), src, MigrateOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, parStats, err := p.Migrate(context.Background(), src, MigrateOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	// One pass, two types: serial runs one shard per type.
	if serialStats.Shards != 2 {
		t.Errorf("serial Shards = %d, want 2", serialStats.Shards)
	}
	if parStats.Shards <= serialStats.Shards {
		t.Errorf("parallel Shards = %d, want > %d", parStats.Shards, serialStats.Shards)
	}
	if parStats.BulkRecords != out.Len() || parStats.BulkRecords != serialStats.BulkRecords {
		t.Errorf("BulkRecords = %d (serial %d), want %d",
			parStats.BulkRecords, serialStats.BulkRecords, out.Len())
	}
	if parStats.FusedSteps != 4 || parStats.Passes != 1 {
		t.Errorf("fuse stats = %+v, want 4 fused steps in 1 pass", parStats)
	}
}

// TestParallelMigrateErrorParity: a store-time failure (a default whose
// kind contradicts the declared field kind) surfaces the identical
// error string, worded for the fused pass, at every shard count; every
// failure a structural pass can raise is its pinned literal, from the
// stepwise oracle and the engine alike.
func TestParallelMigrateErrorParity(t *testing.T) {
	src := randomCompanyDB(t, 45)
	p := &Plan{Steps: []Transformation{
		RenameRecord{Old: "EMP", New: "EMPLOYEE"},
		AddField{Record: "EMPLOYEE", Field: "BAD", Kind: value.Int, Default: value.Str("oops")},
	}}
	const want = "xform: fused steps 1..2: netstore: EMPLOYEE.BAD: value kind STRING, field kind INT"
	for _, par := range []int{1, 2, 8} {
		_, _, err := p.Migrate(context.Background(), src, MigrateOptions{Parallelism: par})
		if err == nil {
			t.Fatalf("par %d: migration did not fail", par)
		}
		if err.Error() != want {
			t.Errorf("par %d error diverges:\nparallel: %v\nwant:     %s", par, err, want)
		}
	}

	// Structural passes: the oracle and the engine both raise the
	// pinned literal.
	for name, c := range structuralErrorCases(t) {
		_, serr := migrateStepwise(c.plan, c.src)
		if serr == nil || serr.Error() != c.want {
			t.Fatalf("%s: stepwise oracle error %v, want %q", name, serr, c.want)
		}
		for _, par := range []int{1, 2, 8} {
			_, _, err := c.plan.Migrate(context.Background(), c.src, MigrateOptions{Parallelism: par})
			if err == nil {
				t.Fatalf("%s par %d: migration did not fail (want %q)", name, par, c.want)
			}
			if err.Error() != c.want {
				t.Errorf("%s par %d error diverges:\nparallel: %v\nwant:     %s", name, par, err, c.want)
			}
		}
	}
}

// structuralErrorCases builds sources on which a structural pass fails
// part-way, one per error the pass can raise:
//   - a self-owned MANAGES set whose first employee is managed by a
//     later one, so the split meets an owner not yet migrated after it
//     has placed the employee's intermediate;
//   - a DEPT with no DIV-DEPT owner, which the collapse cannot re-home;
//   - two DEPTs of one DIV holding equal EMP-NAMEs, which collide in
//     the restored DIV-EMP.
//
// Each want is the full error text, pinned rather than taken from the
// oracle: the oracle reads the same setRoute the engine does.
func structuralErrorCases(t *testing.T) map[string]struct {
	plan *Plan
	src  *netstore.DB
	want string
} {
	t.Helper()
	must := func(id netstore.RecordID, err error) netstore.RecordID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	managed := schema.CompanyV1()
	managed.Sets = append(managed.Sets, &schema.SetType{Name: "MANAGES", Owner: "EMP", Member: "EMP",
		Keys: []string{"EMP-NAME"}, Insertion: schema.Manual, Retention: schema.Optional})
	mdb := netstore.NewDB(managed)
	div := must(mdb.StoreWith("DIV", value.FromPairs("DIV-NAME", "D", "DIV-LOC", "L"),
		map[string]netstore.RecordID{"ALL-DIV": netstore.OwnerSystem}))
	report := must(mdb.StoreWith("EMP", value.FromPairs("EMP-NAME", "A", "DEPT-NAME", "X", "AGE", 30),
		map[string]netstore.RecordID{"DIV-EMP": div}))
	boss := must(mdb.StoreWith("EMP", value.FromPairs("EMP-NAME", "B", "DEPT-NAME", "X", "AGE", 50),
		map[string]netstore.RecordID{"DIV-EMP": div}))
	s := netstore.NewSession(mdb)
	s.Position(boss)
	s.Position(report)
	if st, err := s.Connect("MANAGES"); err != nil || st != netstore.OK {
		t.Fatalf("connect MANAGES: %v %v", st, err)
	}

	v1 := schema.CompanyV1()
	v1.Set("DIV-EMP").Insertion = schema.Manual
	v1.Set("DIV-EMP").Retention = schema.Optional
	v2, err := figure42to44().ApplySchema(v1)
	if err != nil {
		t.Fatal(err)
	}
	// v2db stores one DIV, the named DEPTs (under the DIV when owned)
	// and each {dept, name} EMP under its DEPT.
	v2db := func(owned bool, depts []string, emps [][2]string) *netstore.DB {
		db := netstore.NewDB(v2.Clone())
		d := must(db.StoreWith("DIV", value.FromPairs("DIV-NAME", "D", "DIV-LOC", "L"),
			map[string]netstore.RecordID{"ALL-DIV": netstore.OwnerSystem}))
		ids := map[string]netstore.RecordID{}
		for _, name := range depts {
			var m map[string]netstore.RecordID
			if owned {
				m = map[string]netstore.RecordID{"DIV-DEPT": d}
			}
			ids[name] = must(db.StoreWith("DEPT", value.FromPairs("DEPT-NAME", name), m))
		}
		for _, e := range emps {
			must(db.StoreWith("EMP", value.FromPairs("EMP-NAME", e[1], "AGE", 40),
				map[string]netstore.RecordID{"DEPT-EMP": ids[e[0]]}))
		}
		return db
	}
	split := &Plan{Steps: []Transformation{figure42to44()}}
	collapse := &Plan{Steps: []Transformation{figure44to42()}}
	return map[string]struct {
		plan *Plan
		src  *netstore.DB
		want string
	}{
		"introduce-owner-pending": {split, mdb,
			"xform: introduce-intermediate: xform: owner of EMP in MANAGES not yet migrated"},
		"collapse-orphan": {collapse, v2db(false, []string{"X"}, [][2]string{{"X", "A"}}),
			"xform: collapse-intermediate: xform: intermediate 2 has no DIV-DEPT owner"},
		"collapse-duplicate": {collapse, v2db(true, []string{"X", "Y"}, [][2]string{{"X", "A"}, {"Y", "B"}, {"Y", "A"}}),
			"xform: collapse-intermediate: netstore: set DIV-EMP: duplicate set key in occurrence"},
	}
}

// figure44Data and figure44Index are Figure 4.2's companyV1DB migrated
// to Figure 4.4, written out by hand: three DEPTs (SALES and WELDING
// under MACHINERY, SALES under TEXTILES), each stored just before its
// first EMP, the EMPs' DEPT-NAME and DIV-NAME resolved through the chain.
const figure44Data = `== DIV ==
#1 {DIV-NAME=MACHINERY, DIV-LOC=DETROIT}
#2 {DIV-NAME=TEXTILES, DIV-LOC=ATLANTA}
== DEPT ==
#3 {DEPT-NAME=SALES, DIV-NAME=MACHINERY}
#6 {DEPT-NAME=WELDING, DIV-NAME=MACHINERY}
#8 {DEPT-NAME=SALES, DIV-NAME=TEXTILES}
== EMP ==
#4 {EMP-NAME=ADAMS, DEPT-NAME=SALES, AGE=45, DIV-NAME=MACHINERY}
#5 {EMP-NAME=BAKER, DEPT-NAME=SALES, AGE=28, DIV-NAME=MACHINERY}
#7 {EMP-NAME=CLARK, DEPT-NAME=WELDING, AGE=33, DIV-NAME=MACHINERY}
#9 {EMP-NAME=DAVIS, DEPT-NAME=SALES, AGE=51, DIV-NAME=TEXTILES}
set ALL-DIV
  0 -> [1 2]
set DIV-DEPT
  1 -> [3 6]
  2 -> [8]
set DEPT-EMP
  3 -> [4 5]
  6 -> [7]
  8 -> [9]
`

const figure44Index = `index DEPT(DEPT-NAME)
  "sSALES\x1f" -> [3 8]
  "sWELDING\x1f" -> [6]
index DIV(DIV-NAME)
  "sMACHINERY\x1f" -> [1]
  "sTEXTILES\x1f" -> [2]
index EMP(EMP-NAME)
  "sADAMS\x1f" -> [4]
  "sBAKER\x1f" -> [5]
  "sCLARK\x1f" -> [7]
  "sDAVIS\x1f" -> [9]
`

// figure42Data and figure42Index are the Figure 4.4 database collapsed
// back: the DEPTs vanish, DEPT-NAME is stored on the EMP again, and the
// EMPs renumber densely in owner order.
const figure42Data = `== DIV ==
#1 {DIV-NAME=MACHINERY, DIV-LOC=DETROIT}
#2 {DIV-NAME=TEXTILES, DIV-LOC=ATLANTA}
== EMP ==
#3 {EMP-NAME=ADAMS, DEPT-NAME=SALES, AGE=45, DIV-NAME=MACHINERY}
#4 {EMP-NAME=BAKER, DEPT-NAME=SALES, AGE=28, DIV-NAME=MACHINERY}
#5 {EMP-NAME=CLARK, DEPT-NAME=WELDING, AGE=33, DIV-NAME=MACHINERY}
#6 {EMP-NAME=DAVIS, DEPT-NAME=SALES, AGE=51, DIV-NAME=TEXTILES}
set ALL-DIV
  0 -> [1 2]
set DIV-EMP
  1 -> [3 4 5]
  2 -> [6]
`

const figure42Index = `index DIV(DIV-NAME)
  "sMACHINERY\x1f" -> [1]
  "sTEXTILES\x1f" -> [2]
index EMP(EMP-NAME)
  "sADAMS\x1f" -> [3]
  "sBAKER\x1f" -> [4]
  "sCLARK\x1f" -> [5]
  "sDAVIS\x1f" -> [6]
`

// TestStructuralMigrationDumps checks the structural steps against
// hand-written databases rather than the oracle: Figure 4.2 → 4.4 on
// companyV1DB, and the collapse back, from the engine at every shard
// count and from the stepwise oracle.
func TestStructuralMigrationDumps(t *testing.T) {
	split := &Plan{Steps: []Transformation{figure42to44()}}
	collapse := &Plan{Steps: []Transformation{figure44to42()}}
	cases := []struct {
		name      string
		plan      *Plan
		dump, idx string
		dst       *schema.Network
	}{
		{"introduce", split, figure44Data, figure44Index, schema.CompanyV2()},
		{"collapse", collapse, figure42Data, figure42Index, schema.CompanyV1()},
	}
	src := companyV1DB(t)
	for _, c := range cases {
		wantDump := c.dst.DDL() + c.dump
		check := func(from string, got *netstore.DB) {
			t.Helper()
			if d := dumpDB(got); d != wantDump {
				t.Fatalf("%s %s: database:\n%s\nwant:\n%s", c.name, from, d, wantDump)
			}
			if ix := got.IndexDump(); ix != c.idx {
				t.Fatalf("%s %s: indexes:\n%s\nwant:\n%s", c.name, from, ix, c.idx)
			}
		}
		oracle, err := migrateStepwise(c.plan, src)
		if err != nil {
			t.Fatalf("%s oracle: %v", c.name, err)
		}
		check("oracle", oracle)
		for _, par := range []int{1, 2, 8} {
			got, _, err := c.plan.Migrate(context.Background(), src, MigrateOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("%s par %d: %v", c.name, par, err)
			}
			check(fmt.Sprintf("par %d", par), got)
		}
		src = oracle
	}
}

// TestParallelMigrateContextCanceled: shard workers and the splice poll
// the context on fusible and structural passes alike; a canceled or
// expired context aborts the rebuild with the cause visible through the
// per-step wrapping.
func TestParallelMigrateContextCanceled(t *testing.T) {
	src := randomCompanyDB(t, 46)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	plans := planTemplates()
	for _, name := range []string{"fused-run", "lone-introduce", "split-collapse"} {
		for _, c := range []struct {
			ctx  context.Context
			want error
		}{{canceled, context.Canceled}, {expired, context.DeadlineExceeded}} {
			_, _, err := plans[name].Migrate(c.ctx, src, MigrateOptions{Parallelism: 4})
			if !errors.Is(err, c.want) {
				t.Fatalf("%s: err = %v, want %v", name, err, c.want)
			}
		}
	}
}

// TestParallelHierMigrate: the sharded hierarchical migration matches
// the serialHierReorder oracle byte for byte — hierarchic
// sequence and advisory warnings — at every shard count, and the
// identity plan still clones.
func TestParallelHierMigrate(t *testing.T) {
	src := personnelHierDB(t)
	plan := &HierPlan{Steps: []HierReorder{{Promote: "EMP"}}}

	dst, err := plan.Steps[0].ApplySchema(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	want, wantWarnings, err := serialHierReorder(plan.Steps[0], src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		got, warnings, stats, err := plan.Migrate(context.Background(), src, MigrateOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if got.DumpSequence() != want.DumpSequence() {
			t.Fatalf("par %d: sequence diverges:\n--- parallel ---\n%s\n--- serial ---\n%s",
				par, got.DumpSequence(), want.DumpSequence())
		}
		if strings.Join(warnings, "|") != strings.Join(wantWarnings, "|") {
			t.Errorf("par %d: warnings = %v, want %v", par, warnings, wantWarnings)
		}
		if stats.Shards < 1 {
			t.Errorf("par %d: stats.Shards = %d", par, stats.Shards)
		}
	}

	identity := &HierPlan{}
	same, _, _, err := identity.Migrate(context.Background(), src, MigrateOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if same == src {
		t.Error("identity migration aliases the source database")
	}
	if same.DumpSequence() != src.DumpSequence() {
		t.Error("identity migration altered the database")
	}
}

// TestParallelHierMigrateContextCanceled mirrors the network test for
// the hierarchical path.
func TestParallelHierMigrateContextCanceled(t *testing.T) {
	src := personnelHierDB(t)
	plan := &HierPlan{Steps: []HierReorder{{Promote: "EMP"}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := plan.Migrate(ctx, src, MigrateOptions{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
