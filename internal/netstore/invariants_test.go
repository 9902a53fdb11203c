package netstore

import (
	"fmt"
	"math/rand"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// checkInvariants verifies the structural invariants the engine promises
// after any operation sequence:
//
//  1. membership is bidirectional: OwnerOf and Members agree exactly;
//  2. every set occurrence is ordered by the set's keys;
//  3. no duplicate set-key values inside one occurrence;
//  4. AUTOMATIC+MANDATORY members of non-SYSTEM sets are always connected
//     (they cannot be stored without an owner or disconnected later);
//  5. every hash index is exactly the partition of byType by key value,
//     with buckets in ascending (= scan) order.
func checkInvariants(t *testing.T, db *DB) {
	t.Helper()
	checkIndexStructure(t, db)
	sch := db.Schema()
	for _, set := range sch.Sets {
		// Collect owner → members as recorded in the occurrence lists.
		owners := []RecordID{OwnerSystem}
		if !set.IsSystem() {
			owners = db.AllOf(set.Owner)
		}
		listed := map[RecordID]RecordID{} // member -> owner per lists
		for _, owner := range owners {
			members := db.Members(set.Name, owner)
			seenKeys := map[string]bool{}
			for i, m := range members {
				listed[m] = owner
				data := db.StoredData(m)
				if data == nil {
					t.Fatalf("set %s lists erased record %d", set.Name, m)
				}
				if len(set.Keys) > 0 {
					k := data.KeyOf(set.Keys)
					if seenKeys[k] {
						t.Fatalf("set %s occurrence of %d has duplicate key %v", set.Name, owner, set.Keys)
					}
					seenKeys[k] = true
					if i > 0 {
						prev := db.StoredData(members[i-1])
						if value.CompareBy(prev, data, set.Keys) > 0 {
							t.Fatalf("set %s occurrence of %d out of order at %d", set.Name, owner, i)
						}
					}
				}
			}
		}
		// Every member's OwnerOf agrees with the occurrence lists.
		for _, m := range db.AllOf(set.Member) {
			owner, connected := db.OwnerOf(set.Name, m)
			lo, inList := listed[m]
			if connected != inList {
				t.Fatalf("set %s: record %d connected=%v but inList=%v", set.Name, m, connected, inList)
			}
			if connected && owner != lo {
				t.Fatalf("set %s: record %d OwnerOf=%d but listed under %d", set.Name, m, owner, lo)
			}
			if !connected && set.Insertion == schema.Automatic && set.Retention == schema.Mandatory {
				t.Fatalf("set %s: AUTOMATIC MANDATORY member %d is disconnected", set.Name, m)
			}
		}
	}
}

// checkIndexStructure rebuilds every index's expected buckets from the
// byType lists and compares them with the incrementally maintained ones.
func checkIndexStructure(t *testing.T, db *DB) {
	t.Helper()
	for typ, idxs := range db.indexes {
		for _, ix := range idxs {
			want := map[string][]RecordID{}
			for _, id := range db.byType[typ] {
				k := db.recs[id].data.KeyOf(ix.fields)
				want[k] = append(want[k], id)
			}
			if len(want) != len(ix.buckets) {
				t.Fatalf("index %s%v: %d buckets, want %d", typ, ix.fields, len(ix.buckets), len(want))
			}
			for k, ids := range want {
				got := ix.buckets[k]
				if len(got) != len(ids) {
					t.Fatalf("index %s%v bucket %q: %v, want %v", typ, ix.fields, k, got, ids)
				}
				for i := range ids {
					if got[i] != ids[i] {
						t.Fatalf("index %s%v bucket %q: %v, want %v", typ, ix.fields, k, got, ids)
					}
				}
			}
		}
	}
}

// oracleFind is an independent reimplementation of the FIND scan used as
// ground truth: first occurrence after `after` in insertion order whose
// resolved record agrees with every non-null match field.
func oracleFind(db *DB, recType string, match *value.Record, after RecordID) RecordID {
	skipping := after != 0
	for _, id := range db.AllOf(recType) {
		if skipping {
			if id == after {
				skipping = false
			}
			continue
		}
		ok := true
		if match != nil {
			rec := db.Data(id)
			for _, n := range match.Names() {
				want := match.MustGet(n)
				if want.IsNull() {
					continue
				}
				if !rec.MustGet(n).Equal(want) {
					ok = false
					break
				}
			}
		}
		if ok {
			return id
		}
	}
	return 0
}

// checkFindAgainstOracle runs FindAny and the full FindDuplicate chain on
// a fresh session and asserts each step lands exactly where the oracle
// scan says it must — regardless of whether the index or the scan path
// answered.
func checkFindAgainstOracle(t *testing.T, db *DB, recType string, match *value.Record) {
	t.Helper()
	s := NewSession(db)
	st, err := s.FindAny(recType, match)
	if err != nil {
		t.Fatalf("FindAny %s %v: %v", recType, match, err)
	}
	cur := oracleFind(db, recType, match, 0)
	if cur == 0 {
		if st != NotFound {
			t.Fatalf("FindAny %s %v: status %v, oracle found nothing", recType, match, st)
		}
		return
	}
	if st != OK || s.Current() != cur {
		t.Fatalf("FindAny %s %v: got (%v, %d), oracle %d", recType, match, st, s.Current(), cur)
	}
	for {
		st, err = s.FindDuplicate(recType, match)
		if err != nil {
			t.Fatalf("FindDuplicate %s %v: %v", recType, match, err)
		}
		next := oracleFind(db, recType, match, cur)
		if next == 0 {
			if st != NotFound {
				t.Fatalf("FindDuplicate %s %v after %d: status %v, oracle exhausted", recType, match, cur, st)
			}
			return
		}
		if st != OK || s.Current() != next {
			t.Fatalf("FindDuplicate %s %v after %d: got (%v, %d), oracle %d",
				recType, match, cur, st, s.Current(), next)
		}
		cur = next
	}
}

// TestRandomOperationSequencesPreserveInvariants drives the engine with
// seeded random operation mixes and checks the invariants throughout.
func TestRandomOperationSequencesPreserveInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(schema.CompanyV1())
		s := NewSession(db)
		divs := 0
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0, 1: // store a division
				s.Store("DIV", value.FromPairs(
					"DIV-NAME", fmt.Sprintf("DIV-%03d", divs),
					"DIV-LOC", fmt.Sprintf("L%d", rng.Intn(5))))
				divs++
			case 2, 3, 4: // position on a random division and store an employee
				if divs == 0 {
					continue
				}
				s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%03d", rng.Intn(divs))))
				s.Store("EMP", value.FromPairs(
					"EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(2000)),
					"DEPT-NAME", fmt.Sprintf("D%d", rng.Intn(4)),
					"AGE", 20+rng.Intn(40)))
			case 5: // modify a random employee's set key (forces reordering)
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Modify("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(2000))))
			case 6: // modify a non-key field
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Modify("EMP", value.FromPairs("AGE", value.Of(int64(20+rng.Intn(40)))))
			case 7: // erase a random employee
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Erase("EMP")
			case 8: // erase a random division (cascades its employees)
				ids := db.AllOf("DIV")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Erase("DIV")
			case 9: // navigate around (must not corrupt anything)
				s.FindInSet("ALL-DIV", First, nil)
				s.FindInSet("ALL-DIV", Next, nil)
				s.FindInSet("DIV-EMP", Next, nil)
				s.FindOwner("DIV-EMP")
			}
			// Indexed FIND agrees with the scan oracle after every op.
			recType := "EMP"
			if rng.Intn(3) == 0 {
				recType = "DIV"
			}
			checkFindAgainstOracle(t, db, recType, randomMatch(rng, recType))
			if op%50 == 0 {
				checkInvariants(t, db)
			}
		}
		checkInvariants(t, db)
		// The clone carries identical structure.
		checkInvariants(t, db.Clone())
	}
}

// TestRandomSequencesWithManualOptionalSets exercises CONNECT/DISCONNECT
// under the same invariant checks.
func TestRandomSequencesWithManualOptionalSets(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Insertion = schema.Manual
	sch.Set("DIV-EMP").Retention = schema.Optional
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(sch.Clone())
		s := NewSession(db)
		for d := 0; d < 3; d++ {
			s.Store("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%d", d), "DIV-LOC", "X"))
		}
		for op := 0; op < 300; op++ {
			switch rng.Intn(6) {
			case 0, 1: // store a free-floating employee
				s.Store("EMP", value.FromPairs(
					"EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(500)),
					"DEPT-NAME", "D", "AGE", 30))
			case 2, 3: // connect a random employee under a random division
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%d", rng.Intn(3))))
				s.Position(ids[rng.Intn(len(ids))])
				s.Connect("DIV-EMP")
			case 4: // disconnect
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Disconnect("DIV-EMP")
			case 5: // erase
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Erase("EMP")
			}
			// CONNECT/DISCONNECT don't change stored keys, but the index
			// must still agree with the oracle after every interleaving.
			checkFindAgainstOracle(t, db, "EMP",
				value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(500))))
			if op%40 == 0 {
				checkInvariants(t, db)
			}
		}
		checkInvariants(t, db)
	}
}

// keyedSchema has one keyed set per key shape the binary searches must
// order: an int key (ALL-GRP), a string key (BY-NAME, AUTOMATIC
// MANDATORY, so ERASE of a group cascades), a second int key over the
// same member (BY-RANK, MANUAL OPTIONAL) and a composite key led by a
// mostly-null field (BY-TAG, a MANUAL OPTIONAL SYSTEM set).
func keyedSchema() *schema.Network {
	return &schema.Network{
		Name: "KEYED",
		Records: []*schema.RecordType{
			{Name: "GRP", Fields: []schema.Field{{Name: "G-ID", Kind: value.Int}}},
			{Name: "ITEM", Fields: []schema.Field{
				{Name: "NAME", Kind: value.String},
				{Name: "RANK", Kind: value.Int},
				{Name: "TAG", Kind: value.String},
			}},
		},
		Sets: []*schema.SetType{
			{Name: "ALL-GRP", Owner: schema.SystemOwner, Member: "GRP", Keys: []string{"G-ID"},
				Insertion: schema.Automatic, Retention: schema.Mandatory},
			{Name: "BY-NAME", Owner: "GRP", Member: "ITEM", Keys: []string{"NAME"},
				Insertion: schema.Automatic, Retention: schema.Mandatory},
			{Name: "BY-RANK", Owner: "GRP", Member: "ITEM", Keys: []string{"RANK"},
				Insertion: schema.Manual, Retention: schema.Optional},
			{Name: "BY-TAG", Owner: schema.SystemOwner, Member: "ITEM", Keys: []string{"TAG", "RANK"},
				Insertion: schema.Manual, Retention: schema.Optional},
		},
	}
}

// randomItem draws an ITEM from small value pools, so keys collide
// often; TAG is null most of the time.
func randomItem(rng *rand.Rand) *value.Record {
	rec := value.FromPairs(
		"NAME", fmt.Sprintf("N%02d", rng.Intn(30)),
		"RANK", int64(rng.Intn(40)))
	if rng.Intn(5) < 3 {
		rec.Set("TAG", value.NullValue())
	} else {
		rec.Set("TAG", value.Str(fmt.Sprintf("T%d", rng.Intn(4))))
	}
	return rec
}

// scanDuplicateInOcc is the linear scan duplicateInOcc replaced, kept as
// its oracle: any member other than exclude with equal set keys.
func scanDuplicateInOcc(db *DB, set *schema.SetType, owner RecordID, data *value.Record, exclude RecordID) bool {
	if len(set.Keys) == 0 {
		return false
	}
	for _, m := range db.members[set.Name][owner] {
		if m != exclude && value.CompareBy(db.recs[m].data, data, set.Keys) == 0 {
			return true
		}
	}
	return false
}

// checkKeyedOrder asserts that every keyed member list is sorted by
// CompareBy over the set's keys and that memberPos finds each member
// at its index.
func checkKeyedOrder(t *testing.T, db *DB, op string) {
	t.Helper()
	for _, set := range db.schema.Sets {
		if len(set.Keys) == 0 {
			continue
		}
		for owner, lst := range db.members[set.Name] {
			for i, id := range lst {
				m := db.recs[id]
				if i > 0 && value.CompareBy(db.recs[lst[i-1]].data, m.data, set.Keys) > 0 {
					t.Fatalf("after %s: set %s owner %d out of key order at %d", op, set.Name, owner, i)
				}
				if p := db.memberPos(set, lst, m); p != i {
					t.Fatalf("after %s: set %s owner %d: memberPos(#%d) = %d, want %d", op, set.Name, owner, id, p, i)
				}
			}
		}
	}
}

// checkDuplicateOracle probes duplicateInOcc against the scan oracle in
// every keyed occurrence: each member's own keys with and without
// excluding itself (MODIFY's exclude-self case), each member's keys
// moved onto its neighbour's (a MODIFY onto an occupied value), and a
// fresh random record.
func checkDuplicateOracle(t *testing.T, db *DB, rng *rand.Rand, op string) {
	t.Helper()
	probe := func(set *schema.SetType, owner RecordID, data *value.Record, exclude RecordID) {
		t.Helper()
		got := db.duplicateInOcc(set, owner, data, exclude)
		if want := scanDuplicateInOcc(db, set, owner, data, exclude); got != want {
			t.Fatalf("after %s: duplicateInOcc(%s, %d, %v, %d) = %v, scan says %v",
				op, set.Name, owner, data, exclude, got, want)
		}
	}
	for _, set := range db.schema.Sets {
		if len(set.Keys) == 0 {
			continue
		}
		for owner, lst := range db.members[set.Name] {
			for i, id := range lst {
				m := db.recs[id]
				probe(set, owner, m.data, -1)
				probe(set, owner, m.data, id)
				if i > 0 {
					moved := m.data.Clone()
					for _, k := range set.Keys {
						moved.Set(k, db.recs[lst[i-1]].data.MustGet(k))
					}
					probe(set, owner, moved, id)
				}
			}
			if set.Member == "ITEM" {
				probe(set, owner, randomItem(rng), -1)
			}
		}
	}
}

// TestKeyedSetOperationsMatchScanOracle drives randomized STORE,
// StoreWith, MODIFY, CONNECT, DISCONNECT and ERASE, bulk loads and
// clones over string, int and nullable keys. After every operation
// every keyed member list must be in key order and the binary-search
// duplicate check must answer what the linear scan answers.
func TestKeyedSetOperationsMatchScanOracle(t *testing.T) {
	for _, seed := range []int64{21, 22, 23, 24} {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(keyedSchema())
		s := NewSession(db)
		nextGrp := int64(0)
		grps := func() []RecordID { return db.AllOf("GRP") }
		items := func() []RecordID { return db.AllOf("ITEM") }
		pickGrp := func() (RecordID, bool) {
			g := grps()
			if len(g) == 0 {
				return 0, false
			}
			return g[rng.Intn(len(g))], true
		}
		pickItem := func() (RecordID, bool) {
			it := items()
			if len(it) == 0 {
				return 0, false
			}
			return it[rng.Intn(len(it))], true
		}
		for op := 0; op < 300; op++ {
			var name string
			switch rng.Intn(12) {
			case 0: // STORE a group (int keys in ALL-GRP, inserted out of order)
				name = "store GRP"
				s.Store("GRP", value.FromPairs("G-ID", (nextGrp*7)%31))
				nextGrp++
			case 1, 2: // STORE an item under the current group
				name = "store ITEM"
				g, ok := pickGrp()
				if !ok {
					continue
				}
				s.Position(g)
				s.Store("ITEM", randomItem(rng))
			case 3: // StoreWith into explicit occurrences
				name = "StoreWith ITEM"
				g, ok := pickGrp()
				if !ok {
					continue
				}
				m := map[string]RecordID{"BY-NAME": g}
				if rng.Intn(2) == 0 {
					m["BY-RANK"] = g
				}
				if rng.Intn(2) == 0 {
					m["BY-TAG"] = OwnerSystem
				}
				db.StoreWith("ITEM", randomItem(rng), m)
			case 4: // MODIFY keys to fresh random values
				name = "modify random"
				id, ok := pickItem()
				if !ok {
					continue
				}
				s.Position(id)
				s.Modify("ITEM", randomItem(rng))
			case 5: // MODIFY a key onto a neighbour's value: must fail
				name = "modify onto neighbour"
				id, ok := pickItem()
				if !ok {
					continue
				}
				owner, _ := db.OwnerOf("BY-NAME", id)
				lst := db.members["BY-NAME"][owner]
				if len(lst) < 2 {
					continue
				}
				other := lst[0]
				if other == id {
					other = lst[1]
				}
				s.Position(id)
				st, err := s.Modify("ITEM", value.FromPairs("NAME", db.recs[other].data.MustGet("NAME")))
				if err != nil || st != DuplicateInSet {
					t.Fatalf("seed %d op %d: MODIFY onto a neighbour's key: (%v, %v), want DuplicateInSet", seed, op, st, err)
				}
			case 6: // CONNECT into the int-keyed or the nullable-keyed set
				name = "connect"
				id, ok := pickItem()
				g, okg := pickGrp()
				if !ok || !okg {
					continue
				}
				s.Position(g)
				s.Position(id)
				if rng.Intn(2) == 0 {
					s.Connect("BY-RANK")
				} else {
					s.Connect("BY-TAG")
				}
			case 7: // DISCONNECT
				name = "disconnect"
				id, ok := pickItem()
				if !ok {
					continue
				}
				s.Position(id)
				if rng.Intn(2) == 0 {
					s.Disconnect("BY-RANK")
				} else {
					s.Disconnect("BY-TAG")
				}
			case 8: // ERASE an item
				name = "erase ITEM"
				id, ok := pickItem()
				if !ok {
					continue
				}
				s.Position(id)
				s.Erase("ITEM")
			case 9: // ERASE a group, cascading its BY-NAME members
				name = "erase GRP"
				if rng.Intn(3) > 0 {
					continue
				}
				g, ok := pickGrp()
				if !ok {
					continue
				}
				s.Position(g)
				s.Erase("GRP")
			case 10: // bulk-load a batch into the populated database
				name = "bulk load"
				g, ok := pickGrp()
				if !ok {
					continue
				}
				bl := db.NewBulkLoader(8)
				for i := 0; i < 8; i++ {
					m := map[string]RecordID{"BY-NAME": g}
					if rng.Intn(2) == 0 {
						m["BY-RANK"] = g
					}
					if rng.Intn(2) == 0 {
						m["BY-TAG"] = OwnerSystem
					}
					bl.Store("ITEM", randomItem(rng), m)
				}
				bl.Close(2)
			case 11: // carry on against a clone
				name = "clone"
				db = db.Clone()
				s = NewSession(db)
			}
			checkKeyedOrder(t, db, name)
			checkDuplicateOracle(t, db, rng, name)
		}
		checkInvariants(t, db)
	}
}
