package netstore

import (
	"fmt"
	"math/rand"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// BenchmarkKeyedStore measures one StoreWith into a keyed set
// occurrence of 10^2, 10^3 and 10^4 members: the duplicate check and the
// ordered insert binary search the occurrence, so the per-insert cost
// should stay nearly flat across the sizes. Keys arrive in random order
// and interleave with the existing ones; the occurrence is rebuilt
// off the clock every `size` inserts, so it stays between size and
// 2*size members.
func BenchmarkKeyedStore(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("members=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			base := NewDB(schema.CompanyV1())
			div, err := base.StoreWith("DIV", value.FromPairs("DIV-NAME", "D", "DIV-LOC", "L"),
				map[string]RecordID{"ALL-DIV": OwnerSystem})
			if err != nil {
				b.Fatal(err)
			}
			in := map[string]RecordID{"DIV-EMP": div}
			emp := func(k int) *value.Record {
				return value.FromPairs("EMP-NAME", fmt.Sprintf("E%07d", k), "DEPT-NAME", "X", "AGE", 40)
			}
			for _, k := range rng.Perm(size) {
				if _, err := base.StoreWith("EMP", emp(2*k), in); err != nil {
					b.Fatal(err)
				}
			}
			fresh := make([]*value.Record, size)
			for i, k := range rng.Perm(size) {
				fresh[i] = emp(2*k + 1)
			}
			db := base.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % size
				if i > 0 && j == 0 {
					b.StopTimer()
					db = base.Clone()
					b.StartTimer()
				}
				if _, err := db.StoreWith("EMP", fresh[j], in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCompany loads the 5k-record CompanyV1 database the copy
// benchmarks share: 50 divisions, 4,950 employees.
func benchCompany(b *testing.B) *DB {
	db := NewDB(schema.CompanyV1())
	bl := db.NewBulkLoader(5000)
	divs := make([]RecordID, 50)
	for d := range divs {
		id, err := bl.Store("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("D%02d", d), "DIV-LOC", "L"),
			map[string]RecordID{"ALL-DIV": OwnerSystem})
		if err != nil {
			b.Fatal(err)
		}
		divs[d] = id
	}
	for e := 0; e < 4950; e++ {
		if _, err := bl.Store("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E%05d", e), "DEPT-NAME", "X", "AGE", 40),
			map[string]RecordID{"DIV-EMP": divs[e%len(divs)]}); err != nil {
			b.Fatal(err)
		}
	}
	bl.Close(1)
	return db
}

// BenchmarkClone measures a deep copy of the 5k-record benchCompany
// database, the copy a snapshot takes on its first write. allocs/op
// tracks the per-record bookkeeping.
func BenchmarkClone(b *testing.B) {
	db := benchCompany(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = db.Clone()
	}
}

// BenchmarkSnapshot measures what a verification run pays for its
// database on the benchCompany database. ReadOnly takes a snapshot and
// sweeps it with FINDs (every division in ALL-DIV order, and a keyed
// FIND ANY of one employee per division): no copy is made. FirstWrite
// takes a snapshot and STOREs one division: the first write pays one
// Clone.
func BenchmarkSnapshot(b *testing.B) {
	db := benchCompany(b)
	b.Run("ReadOnly", func(b *testing.B) {
		match := value.FromPairs("EMP-NAME", "")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := db.Snapshot()
			s := NewSession(snap)
			n := 0
			for st, _ := s.FindInSet("ALL-DIV", First, nil); st == OK; st, _ = s.FindInSet("ALL-DIV", Next, nil) {
				n++
			}
			for d := 0; d < 50; d++ {
				match.Set("EMP-NAME", value.Str(fmt.Sprintf("E%05d", d)))
				if st, err := s.FindAny("EMP", match); err != nil || st != OK {
					b.Fatalf("FIND ANY EMP: (%v, %v)", st, err)
				}
			}
			if n != 50 {
				b.Fatalf("swept %d divisions, want 50", n)
			}
			cloneSink = snap
		}
	})
	b.Run("FirstWrite", func(b *testing.B) {
		rec := value.FromPairs("DIV-NAME", "NEW", "DIV-LOC", "L")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := db.Snapshot()
			if _, st, err := NewSession(snap).Store("DIV", rec); err != nil || st != OK {
				b.Fatalf("STORE DIV: (%v, %v)", st, err)
			}
			cloneSink = snap
		}
	})
}

// cloneSink keeps the copy benchmarks' results live.
var cloneSink *DB
