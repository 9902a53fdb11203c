package hierstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// seedDepts builds an EmpDeptHierarchy database of 10 departments and
// about 60 employees, the origin the snapshot tests copy.
func seedDepts(t *testing.T, rng *rand.Rand) *DB {
	t.Helper()
	db := NewDB(schema.EmpDeptHierarchy())
	s := NewSession(db)
	for d := 0; d < 10; d++ {
		if st := s.ISRT(value.FromPairs("D#", fmt.Sprintf("D%03d", d*3), "DNAME", "N", "MGR", "M"), U("DEPT")); st != OK {
			t.Fatalf("ISRT DEPT %d: %v", d, st)
		}
	}
	for e := 0; e < 60; e++ {
		s.ISRT(value.FromPairs("E#", fmt.Sprintf("E%04d", rng.Intn(200)), "ENAME", "X",
			"AGE", 20+rng.Intn(40), "YEAR-OF-SERVICE", rng.Intn(20)),
			Q("DEPT", "D#", EQ, value.Str(fmt.Sprintf("D%03d", rng.Intn(10)*3))), U("EMP"))
	}
	return db
}

// dliOp drives one DL/I step and renders what it observed — status,
// returned segment and position — so the same step on two databases
// can be compared as a string.
type dliOp func(rng *rand.Rand, db *DB, s *Session) string

// at positions the PCB on a random occurrence (by its sequence field)
// and reports the GU status.
func at(rng *rand.Rand, db *DB, s *Session) Status {
	seqn := db.Sequence()
	s.Reset()
	if len(seqn) == 0 {
		return GE
	}
	id := seqn[rng.Intn(len(seqn))]
	var st Status
	if db.TypeOf(id) == "EMP" {
		_, st = s.GU(Q("EMP", "E#", EQ, db.Data(id).MustGet("E#")))
	} else {
		_, st = s.GU(Q("DEPT", "D#", EQ, db.Data(id).MustGet("D#")))
	}
	return st
}

func observed(verb string, rec *value.Record, st Status, s *Session) string {
	return fmt.Sprintf("%s: %v %v -> position=%d", verb, rec, st, s.Position())
}

// readOps only navigate: on a snapshot they must never copy.
var readOps = []dliOp{
	func(rng *rand.Rand, db *DB, s *Session) string {
		rec, st := s.GU(Q("EMP", "E#", EQ, value.Str(fmt.Sprintf("E%04d", rng.Intn(200)))))
		return observed("GU EMP", rec, st, s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		rec, st := s.GN(U("EMP"))
		return observed("GN EMP", rec, st, s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		at(rng, db, s)
		out := "GNP sweep:"
		for rec, st := s.GNP(); st == OK; rec, st = s.GNP() {
			out += " " + rec.String()
		}
		return out + observed("", nil, s.Status(), s)
	},
}

// writeOps cover ISRT (roots, children, duplicate twins, a missing
// parent), DLET of whole subtrees and REPL (including the refused
// sequence-field change).
var writeOps = []dliOp{
	func(rng *rand.Rand, db *DB, s *Session) string {
		st := s.ISRT(value.FromPairs("D#", fmt.Sprintf("D%03d", rng.Intn(40)), "DNAME", "N", "MGR", "M"), U("DEPT"))
		return observed("ISRT DEPT", nil, st, s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		st := s.ISRT(value.FromPairs("E#", fmt.Sprintf("E%04d", rng.Intn(200)), "ENAME", "Y",
			"AGE", 20+rng.Intn(40), "YEAR-OF-SERVICE", rng.Intn(20)),
			Q("DEPT", "D#", EQ, value.Str(fmt.Sprintf("D%03d", rng.Intn(40)))), U("EMP"))
		return observed("ISRT EMP", nil, st, s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		st := at(rng, db, s)
		return observed("DLET", nil, st, s) + " " + observed("", nil, s.DLET(), s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		at(rng, db, s)
		data := value.FromPairs("DNAME", fmt.Sprintf("N%d", rng.Intn(5)))
		if db.TypeOf(s.Position()) == "EMP" {
			data = value.FromPairs("AGE", int64(20+rng.Intn(40)))
		}
		switch rng.Intn(4) {
		case 0:
			data = value.FromPairs("E#", "E9999") // DA on an EMP, AJ on a DEPT
		case 1:
			data.Set("AGE", value.Str("old")) // AJ: wrong kind or no such field
		}
		return observed("REPL", nil, s.REPL(data), s)
	},
}

func runOp(rng *rand.Rand, ops []dliOp, db *DB, s *Session) string {
	return ops[rng.Intn(len(ops))](rng, db, s)
}

// dump renders the database in hierarchic sequence with segment IDs.
func dump(db *DB) string { return fmt.Sprint(db.Sequence()) + "\n" + db.DumpSequence() }

// TestSnapshotMatchesClone is the hierarchical snapshot property test:
// the same random DL/I sequence runs on a Snapshot and on a Clone of
// one seeded database, and after every step the statuses, returned
// segments, positions and DumpSequence must be identical. Every 8 steps
// both sides are copied again, so first writes of every kind land on a
// shared snapshot. No origin may change while its snapshot is
// written.
func TestSnapshotMatchesClone(t *testing.T) {
	allOps := append(append([]dliOp(nil), readOps...), writeOps...)
	for _, seed := range []int64{31, 32, 33, 34} {
		rng := rand.New(rand.NewSource(seed))
		type frozen struct {
			db   *DB
			dump string
		}
		origin := seedDepts(t, rng)
		origins := []frozen{{origin, dump(origin)}}
		snap, clone := origin.Snapshot(), origin.Clone()
		ss, cs := NewSession(snap), NewSession(clone)
		for op := 0; op < 300; op++ {
			opSeed := rng.Int63()
			got := runOp(rand.New(rand.NewSource(opSeed)), allOps, snap, ss)
			want := runOp(rand.New(rand.NewSource(opSeed)), allOps, clone, cs)
			if got != want {
				t.Fatalf("seed %d op %d: snapshot observed\n  %s\nclone observed\n  %s", seed, op, got, want)
			}
			if g, w := dump(snap), dump(clone); g != w {
				t.Fatalf("seed %d op %d (%s): snapshot dump\n%s\nclone dump\n%s", seed, op, got, g, w)
			}
			if op%8 == 7 {
				origins = append(origins, frozen{snap, dump(snap)})
				snap, clone = snap.Snapshot(), clone.Clone()
				ss, cs = NewSession(snap), NewSession(clone)
			}
		}
		checkHierInvariants(t, snap)
		for i, o := range origins {
			if d := dump(o.db); d != o.dump {
				t.Fatalf("seed %d: origin %d changed while its snapshot was written:\nbefore\n%s\nafter\n%s", seed, i, o.dump, d)
			}
		}
	}
}

// snapshotWorkload runs 200 seeded steps on db — navigation only, or a
// mix with writes — and returns the transcript and the final dump.
func snapshotWorkload(t *testing.T, db *DB, seed int64, writes bool) string {
	rng := rand.New(rand.NewSource(seed))
	ops := readOps
	if writes {
		ops = append(append([]dliOp(nil), readOps...), writeOps...)
	}
	s := NewSession(db)
	snapshot := db.shared
	out := ""
	for op := 0; op < 200; op++ {
		out += runOp(rng, ops, db, s) + "\n"
	}
	if snapshot && !writes && !db.shared {
		t.Errorf("seed %d: a read-only run copied the snapshot", seed)
	}
	return out + dump(db)
}

// TestConcurrentSnapshots runs 8 snapshots of one origin at once, half
// read-only and half writing (run it under -race). Each must observe
// what the same workload observes on a private Clone, and the origin
// must not change.
func TestConcurrentSnapshots(t *testing.T) {
	origin := seedDepts(t, rand.New(rand.NewSource(41)))
	before := dump(origin)
	const n = 8
	want := make([]string, n)
	for i := range want {
		want[i] = snapshotWorkload(t, origin.Clone(), int64(i), i%2 == 1)
	}
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = snapshotWorkload(t, origin.Snapshot(), int64(i), i%2 == 1)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("snapshot %d (writes=%v) diverged from its clone run", i, i%2 == 1)
		}
	}
	if d := dump(origin); d != before {
		t.Fatal("origin changed while its snapshots ran")
	}
}
