package netstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"progconv/internal/value"
)

// seedKeyed builds a keyedSchema database of 12 groups and about 120
// items, the origin the snapshot tests copy.
func seedKeyed(t *testing.T, rng *rand.Rand) *DB {
	t.Helper()
	db := NewDB(keyedSchema())
	s := NewSession(db)
	for g := 0; g < 12; g++ {
		if _, st, err := s.Store("GRP", value.FromPairs("G-ID", int64(g*5))); err != nil || st != OK {
			t.Fatalf("store GRP %d: (%v, %v)", g, st, err)
		}
	}
	grps := db.AllOf("GRP")
	for i := 0; i < 120; i++ {
		g := grps[rng.Intn(len(grps))]
		id, err := db.StoreWith("ITEM", randomItem(rng), map[string]RecordID{"BY-NAME": g})
		if err != nil {
			continue // duplicate NAME in the group: draw again next time
		}
		s.Position(g)
		s.Position(id)
		if rng.Intn(2) == 0 {
			s.Connect("BY-RANK")
		}
		if rng.Intn(3) == 0 {
			s.Connect("BY-TAG")
		}
	}
	return db
}

// dmlOp drives one DML step and renders everything it observed — the
// returned IDs, DB-STATUS codes, error text and currency — so the same
// step on two databases can be compared as a string.
type dmlOp func(rng *rand.Rand, db *DB, s *Session) string

// pick returns a random live occurrence of the record type, or 0.
func pick(rng *rand.Rand, db *DB, recType string) RecordID {
	ids := db.AllOf(recType)
	if len(ids) == 0 {
		return 0
	}
	return ids[rng.Intn(len(ids))]
}

// after renders the session state every step reports.
func after(s *Session) string {
	return fmt.Sprintf(" -> status=%v current=%d grp=%d rank=%d", s.Status(), s.Current(),
		s.CurrentOfType("GRP"), s.CurrentOfSet("BY-RANK"))
}

// readOps only navigate: on a snapshot they must never copy.
var readOps = []dmlOp{
	func(rng *rand.Rand, db *DB, s *Session) string {
		st, err := s.FindAny("ITEM", value.FromPairs("NAME", fmt.Sprintf("N%02d", rng.Intn(30))))
		return fmt.Sprintf("find any ITEM: %v %v", st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		st, err := s.FindDuplicate("ITEM", value.FromPairs("RANK", int64(rng.Intn(40))))
		return fmt.Sprintf("find duplicate ITEM: %v %v", st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		s.Position(pick(rng, db, "GRP"))
		out := "walk BY-NAME:"
		for st, _ := s.FindInSet("BY-NAME", First, nil); st == OK; st, _ = s.FindInSet("BY-NAME", Next, nil) {
			rec, _, _ := s.Get("ITEM")
			out += " " + rec.String()
		}
		return out + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		st, err := s.FindInSet("BY-TAG", Last, value.FromPairs("TAG", "T1"))
		st2, err2 := s.FindOwner("BY-RANK")
		return fmt.Sprintf("find BY-TAG last, owner BY-RANK: %v %v %v %v", st, err, st2, err2) + after(s)
	},
}

// writeOps cover every mutating entry point: STORE, StoreWith, MODIFY,
// ERASE (with BY-NAME's MANDATORY cascade from GRP), CONNECT,
// DISCONNECT, a bulk load and SetIndexing, including their status and
// usage-error outcomes.
var writeOps = []dmlOp{
	func(rng *rand.Rand, db *DB, s *Session) string {
		id, st, err := s.Store("GRP", value.FromPairs("G-ID", int64(rng.Intn(80))))
		return fmt.Sprintf("store GRP: %d %v %v", id, st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		s.Position(pick(rng, db, "GRP"))
		id, st, err := s.Store("ITEM", randomItem(rng))
		return fmt.Sprintf("store ITEM: %d %v %v", id, st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		// One membership, so the error text is independent of map order.
		owner := pick(rng, db, "GRP")
		if rng.Intn(6) == 0 {
			owner = db.IDBound() + 7
		}
		id, err := db.StoreWith("ITEM", randomItem(rng), map[string]RecordID{"BY-NAME": owner})
		return fmt.Sprintf("StoreWith ITEM: %d %v", id, err)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		s.Position(pick(rng, db, "ITEM"))
		rec := randomItem(rng)
		if rng.Intn(6) == 0 {
			rec = value.FromPairs("RANK", "not-an-int")
		}
		st, err := s.Modify("ITEM", rec)
		return fmt.Sprintf("modify ITEM: %v %v", st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		s.Position(pick(rng, db, "ITEM"))
		st, err := s.Erase("ITEM")
		return fmt.Sprintf("erase ITEM: %v %v", st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		s.Position(pick(rng, db, "GRP"))
		st, err := s.Erase("GRP")
		return fmt.Sprintf("erase GRP: %v %v", st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		s.Position(pick(rng, db, "GRP"))
		s.Position(pick(rng, db, "ITEM"))
		set := []string{"BY-RANK", "BY-TAG", "BY-NAME"}[rng.Intn(3)]
		st, err := s.Connect(set)
		return fmt.Sprintf("connect %s: %v %v", set, st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		s.Position(pick(rng, db, "ITEM"))
		set := []string{"BY-RANK", "BY-TAG", "BY-NAME"}[rng.Intn(3)]
		st, err := s.Disconnect(set)
		return fmt.Sprintf("disconnect %s: %v %v", set, st, err) + after(s)
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		owner := pick(rng, db, "GRP")
		bl := db.NewBulkLoader(4)
		out := "bulk load:"
		for i := 0; i < 4; i++ {
			id, err := bl.Store("ITEM", randomItem(rng), map[string]RecordID{"BY-NAME": owner})
			out += fmt.Sprintf(" %d %v", id, err)
		}
		bl.Close(2)
		return out
	},
	func(rng *rand.Rand, db *DB, s *Session) string {
		on := rng.Intn(3) > 0
		db.SetIndexing(on)
		return fmt.Sprintf("indexing %v", on)
	},
}

// runOp draws one step from ops and applies it.
func runOp(rng *rand.Rand, ops []dmlOp, db *DB, s *Session) string {
	return ops[rng.Intn(len(ops))](rng, db, s)
}

// TestSnapshotMatchesClone is the snapshot property test: the same
// random DML sequence runs on a Snapshot and on a Clone of one seeded
// database, and after every step the observed statuses, error text,
// currency, dump and indexes must be identical. Every 8 steps both
// sides are copied again (a snapshot of the snapshot, a clone of the
// clone), so first writes of every kind land on a shared snapshot. No
// origin may change while its snapshot is written.
func TestSnapshotMatchesClone(t *testing.T) {
	allOps := append(append([]dmlOp(nil), readOps...), writeOps...)
	for _, seed := range []int64{31, 32, 33, 34} {
		rng := rand.New(rand.NewSource(seed))
		type frozen struct {
			db   *DB
			dump string
		}
		origin := seedKeyed(t, rng)
		origins := []frozen{{origin, dumpState(origin)}}
		snap, clone := origin.Snapshot(), origin.Clone()
		ss, cs := NewSession(snap), NewSession(clone)
		for op := 0; op < 300; op++ {
			opSeed := rng.Int63()
			got := runOp(rand.New(rand.NewSource(opSeed)), allOps, snap, ss)
			want := runOp(rand.New(rand.NewSource(opSeed)), allOps, clone, cs)
			if got != want {
				t.Fatalf("seed %d op %d: snapshot observed\n  %s\nclone observed\n  %s", seed, op, got, want)
			}
			// dumpState ends with IndexDump, so this compares the indexes too.
			if g, w := dumpState(snap), dumpState(clone); g != w {
				t.Fatalf("seed %d op %d (%s): snapshot dump\n%s\nclone dump\n%s", seed, op, got, g, w)
			}
			if op%8 == 7 {
				origins = append(origins, frozen{snap, dumpState(snap)})
				snap, clone = snap.Snapshot(), clone.Clone()
				ss, cs = NewSession(snap), NewSession(clone)
			}
		}
		checkInvariants(t, snap)
		for i, o := range origins {
			if d := dumpState(o.db); d != o.dump {
				t.Fatalf("seed %d: origin %d changed while its snapshot was written:\nbefore\n%s\nafter\n%s", seed, i, o.dump, d)
			}
		}
	}
}

// TestSnapshotReadOnlyCopiesNothing pins the point of snapshots: a run
// that only navigates keeps reading the origin's structures.
func TestSnapshotReadOnlyCopiesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	origin := seedKeyed(t, rng)
	snap := origin.Snapshot()
	s := NewSession(snap)
	for op := 0; op < 200; op++ {
		runOp(rng, readOps, snap, s)
	}
	if !snap.shared {
		t.Fatal("a read-only run copied the snapshot")
	}
	if _, st, err := s.Store("GRP", value.FromPairs("G-ID", int64(999))); err != nil || st != OK {
		t.Fatalf("store on snapshot: (%v, %v)", st, err)
	}
	if snap.shared || snap.Count("GRP") != origin.Count("GRP")+1 {
		t.Fatal("the first write did not give the snapshot its own copy")
	}
}

// TestSnapshotSharesIndexStats: probes on a snapshot, before and after
// its first write, count toward the origin's totals, as with Clone.
func TestSnapshotSharesIndexStats(t *testing.T) {
	db := NewDB(keyedSchema())
	s := NewSession(db)
	s.Store("GRP", value.FromPairs("G-ID", int64(1)))
	snap := db.Snapshot()
	ss := NewSession(snap)
	ss.FindAny("GRP", value.FromPairs("G-ID", int64(1)))
	ss.Store("GRP", value.FromPairs("G-ID", int64(2)))
	ss.FindAny("GRP", value.FromPairs("G-ID", int64(2)))
	if probes, _ := db.IndexStatsOf().Snapshot(); probes != 2 {
		t.Fatalf("snapshot probes not visible on the origin's stats (probes=%d)", probes)
	}
}

// snapshotWorkload runs 200 seeded steps on db — navigation only, or a
// mix with writes — and returns the transcript and the final dump.
func snapshotWorkload(t *testing.T, db *DB, seed int64, writes bool) string {
	rng := rand.New(rand.NewSource(seed))
	ops := readOps
	if writes {
		ops = append(append([]dmlOp(nil), readOps...), writeOps...)
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
	return out + dumpState(db)
}

// TestConcurrentSnapshots runs 8 snapshots of one origin at once, half
// read-only and half writing (run it under -race). Each must observe
// what the same workload observes on a private Clone, and the origin
// must not change.
func TestConcurrentSnapshots(t *testing.T) {
	origin := seedKeyed(t, rand.New(rand.NewSource(41)))
	before := dumpState(origin)
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
	if d := dumpState(origin); d != before {
		t.Fatal("origin changed while its snapshots ran")
	}
}
