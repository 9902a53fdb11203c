package netstore

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// dumpState renders the complete database state deterministically:
// every occurrence in byType order with its stored fields and
// memberships, every set occurrence's member list, and the index
// contents. Two databases built by equivalent insert sequences must
// dump byte-identically.
func dumpState(db *DB) string {
	var b strings.Builder
	for _, t := range db.schema.Records {
		for _, id := range db.byType[t.Name] {
			o := db.recs[id]
			fmt.Fprintf(&b, "#%d %s {", id, t.Name)
			first := true
			for _, f := range t.Fields {
				if f.Virtual != nil {
					continue
				}
				if !first {
					b.WriteString(" ")
				}
				first = false
				v, _ := o.data.Get(f.Name)
				fmt.Fprintf(&b, "%s=%s", f.Name, v.String())
			}
			b.WriteString("}")
			links := append([]setLink(nil), o.links...)
			sort.Slice(links, func(i, j int) bool { return links[i].set < links[j].set })
			for _, l := range links {
				fmt.Fprintf(&b, " %s<-#%d", l.set, l.owner)
			}
			b.WriteString("\n")
		}
	}
	for _, set := range db.schema.Sets {
		owners := make([]RecordID, 0, len(db.members[set.Name]))
		for o := range db.members[set.Name] {
			owners = append(owners, o)
		}
		sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
		for _, o := range owners {
			if lst := db.members[set.Name][o]; len(lst) > 0 {
				fmt.Fprintf(&b, "set %s owner #%d: %v\n", set.Name, o, lst)
			}
		}
	}
	b.WriteString(db.IndexDump())
	return b.String()
}

// storeFunc abstracts the two insert paths so the same scripted load
// can drive StoreWith and BulkLoader.Store.
type storeFunc func(recType string, rec *value.Record, memberships map[string]RecordID) (RecordID, error)

// loadCompany drives a fixed CompanyV1 load — divisions under the
// SYSTEM set, employees deliberately out of key order so Close's sort
// has real work — and returns every assigned ID in store order.
func loadCompany(t *testing.T, store storeFunc) []RecordID {
	t.Helper()
	var ids []RecordID
	must := func(recType string, rec *value.Record, m map[string]RecordID) RecordID {
		id, err := store(recType, rec, m)
		if err != nil {
			t.Fatalf("store %s: %v", recType, err)
		}
		ids = append(ids, id)
		return id
	}
	mach := must("DIV", value.FromPairs("DIV-NAME", "MACHINERY", "DIV-LOC", "DETROIT"),
		map[string]RecordID{"ALL-DIV": OwnerSystem})
	tex := must("DIV", value.FromPairs("DIV-NAME", "TEXTILES", "DIV-LOC", "ATLANTA"),
		map[string]RecordID{"ALL-DIV": OwnerSystem})
	for _, e := range []struct {
		owner RecordID
		name  string
		dept  string
		age   int
	}{
		{mach, "ZIEGLER", "WELDING", 60},
		{mach, "ADAMS", "SALES", 45},
		{tex, "QUINN", "SALES", 39},
		{mach, "MILLER", "SALES", 28},
		{tex, "BAKER", "WEAVING", 51},
	} {
		must("EMP", value.FromPairs("EMP-NAME", e.name, "DEPT-NAME", e.dept, "AGE", e.age),
			map[string]RecordID{"DIV-EMP": e.owner})
	}
	// A record connected to no set at all still loads.
	must("EMP", value.FromPairs("EMP-NAME", "ORPHAN", "DEPT-NAME", "NONE", "AGE", 1), nil)
	return ids
}

// TestBulkLoaderParity: the same insert sequence through StoreWith and
// through a BulkLoader yields byte-identical databases — IDs, stored
// data, memberships, keyed-set orderings, and index buckets.
func TestBulkLoaderParity(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("close-parallelism-%d", par), func(t *testing.T) {
			serial := NewDB(schema.CompanyV1())
			serialIDs := loadCompany(t, serial.StoreWith)

			bulkDB := NewDB(schema.CompanyV1())
			bl := bulkDB.NewBulkLoader(8)
			bulkIDs := loadCompany(t, bl.Store)
			bl.Close(par)

			if fmt.Sprint(serialIDs) != fmt.Sprint(bulkIDs) {
				t.Fatalf("assigned IDs diverge:\nserial %v\nbulk   %v", serialIDs, bulkIDs)
			}
			if bl.Loaded() != len(bulkIDs) {
				t.Errorf("Loaded() = %d, want %d", bl.Loaded(), len(bulkIDs))
			}
			if got, want := dumpState(bulkDB), dumpState(serial); got != want {
				t.Errorf("bulk-loaded state diverges:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
			}
		})
	}
}

// TestBulkLoaderParityUnindexed: the loader behaves identically when
// the keyed FIND fast path is disabled (db.indexes == nil).
func TestBulkLoaderParityUnindexed(t *testing.T) {
	serial := NewDB(schema.CompanyV1())
	serial.SetIndexing(false)
	loadCompany(t, serial.StoreWith)

	bulkDB := NewDB(schema.CompanyV1())
	bulkDB.SetIndexing(false)
	bl := bulkDB.NewBulkLoader(8)
	loadCompany(t, bl.Store)
	bl.Close(2)

	if got, want := dumpState(bulkDB), dumpState(serial); got != want {
		t.Errorf("unindexed state diverges:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
	}
}

// TestBulkLoaderErrorParity: every validation failure surfaces the same
// error string as StoreWith, rejects the record in both paths (no ID is
// consumed), and leaves both databases equal afterward.
func TestBulkLoaderErrorParity(t *testing.T) {
	serial := NewDB(schema.CompanyV1())
	loadCompany(t, serial.StoreWith)
	bulkDB := NewDB(schema.CompanyV1())
	bl := bulkDB.NewBulkLoader(8)
	loadCompany(t, bl.Store)

	emp := value.FromPairs("EMP-NAME", "NEW", "DEPT-NAME", "SALES", "AGE", 30)
	cases := []struct {
		name    string
		recType string
		rec     *value.Record
		m       map[string]RecordID
	}{
		{"unknown-record-type", "NOPE", emp, nil},
		{"kind-mismatch", "EMP",
			value.FromPairs("EMP-NAME", "NEW", "DEPT-NAME", "SALES", "AGE", "old"), nil},
		{"unknown-set", "EMP", emp, map[string]RecordID{"NO-SET": 1}},
		{"not-member-type", "DIV",
			value.FromPairs("DIV-NAME", "X", "DIV-LOC", "Y"), map[string]RecordID{"DIV-EMP": 1}},
		{"system-owned", "DIV",
			value.FromPairs("DIV-NAME", "X", "DIV-LOC", "Y"), map[string]RecordID{"ALL-DIV": 1}},
		{"owner-missing", "EMP", emp, map[string]RecordID{"DIV-EMP": 999}},
		{"owner-wrong-type", "EMP", emp, map[string]RecordID{"DIV-EMP": 3}}, // #3 is an EMP
		{"duplicate-set-key", "EMP",
			value.FromPairs("EMP-NAME", "ADAMS", "DEPT-NAME", "SALES", "AGE", 45),
			map[string]RecordID{"DIV-EMP": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := serial.StoreWith(tc.recType, tc.rec, tc.m)
			_, berr := bl.Store(tc.recType, tc.rec, tc.m)
			if serr == nil || berr == nil {
				t.Fatalf("expected errors, got StoreWith=%v bulk=%v", serr, berr)
			}
			if serr.Error() != berr.Error() {
				t.Errorf("error strings diverge:\nStoreWith: %v\nbulk:      %v", serr, berr)
			}
		})
	}
	// Failed stores consumed no IDs; the next insert stays in lockstep.
	sid, serr := serial.StoreWith("EMP", emp, map[string]RecordID{"DIV-EMP": 2})
	bid, berr := bl.Store("EMP", emp, map[string]RecordID{"DIV-EMP": 2})
	if serr != nil || berr != nil || sid != bid {
		t.Fatalf("post-error store: serial (%d, %v) vs bulk (%d, %v)", sid, serr, bid, berr)
	}
	bl.Close(0)
	if got, want := dumpState(bulkDB), dumpState(serial); got != want {
		t.Errorf("state diverges after error sequence:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
	}
}

// TestBulkLoaderIntoPopulatedDB: a bulk load into a database that
// already holds records keeps StoreWith's duplicate-key checks against
// the pre-existing members and merges identically to the serial path.
func TestBulkLoaderIntoPopulatedDB(t *testing.T) {
	serial, _ := seedCompany(t)
	bulkDB := serial.Clone()

	bl := bulkDB.NewBulkLoader(4)
	// Duplicate of the pre-existing ADAMS key under division #1: both
	// paths must reject it even though the loader never stored ADAMS.
	dup := value.FromPairs("EMP-NAME", "ADAMS", "DEPT-NAME", "SALES", "AGE", 45)
	_, serr := serial.StoreWith("EMP", dup, map[string]RecordID{"DIV-EMP": 1})
	_, berr := bl.Store("EMP", dup, map[string]RecordID{"DIV-EMP": 1})
	if serr == nil || berr == nil || serr.Error() != berr.Error() {
		t.Fatalf("pre-existing duplicate: StoreWith=%v bulk=%v", serr, berr)
	}
	for _, name := range []string{"EARLY", "YOUNG"} {
		rec := value.FromPairs("EMP-NAME", name, "DEPT-NAME", "SALES", "AGE", 20)
		if _, err := serial.StoreWith("EMP", rec, map[string]RecordID{"DIV-EMP": 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := bl.Store("EMP", rec, map[string]RecordID{"DIV-EMP": 2}); err != nil {
			t.Fatal(err)
		}
	}
	bl.Close(2)
	if got, want := dumpState(bulkDB), dumpState(serial); got != want {
		t.Errorf("populated-DB load diverges:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
	}
}
