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

// BenchmarkClone measures a deep copy of a 5k-record CompanyV1
// database (50 divisions, 4,950 employees), the copy every verified
// program takes of both databases. allocs/op tracks the per-record
// bookkeeping.
func BenchmarkClone(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = db.Clone()
	}
}

// cloneSink keeps BenchmarkClone's result live.
var cloneSink *DB
