package netstore

import (
	"fmt"
	"sort"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// RecordID identifies a record occurrence. IDs are never reused, so a
// stale currency indicator can be detected after an ERASE.
type RecordID int64

// systemOwner is the pseudo-owner of SYSTEM (singular) set occurrences.
const systemOwner RecordID = 0

type occurrence struct {
	id   RecordID
	typ  *schema.RecordType
	data *value.Record // stored fields only
	// links names the set occurrences this record is connected into, at
	// most one per set type. Schemas give a record type one or two
	// member sets, so a short slice beats a map on both lookup and
	// footprint.
	links []setLink
}

// setLink connects a record into one set occurrence: the set type's
// name and the owner occurrence (systemOwner for SYSTEM sets).
type setLink struct {
	set   string
	owner RecordID
}

// ownerIn returns the owner of the set occurrence the record is
// connected into within set, and whether it is connected at all.
func (o *occurrence) ownerIn(set string) (RecordID, bool) {
	for _, l := range o.links {
		if l.set == set {
			return l.owner, true
		}
	}
	return 0, false
}

// unlink drops the record's link into set, if any.
func (o *occurrence) unlink(set string) {
	for i, l := range o.links {
		if l.set == set {
			n := len(o.links) - 1
			copy(o.links[i:], o.links[i+1:])
			o.links[n] = setLink{} // don't retain the set name past the tail
			o.links = o.links[:n]
			return
		}
	}
}

// DB is an in-memory CODASYL database instance. Navigation state lives in
// Session, not here, so several run-units can share one database.
type DB struct {
	schema *schema.Network
	recs   map[RecordID]*occurrence
	byType map[string][]RecordID // insertion-ordered occurrences per record type
	// members maps set type -> owner occurrence -> ordered member IDs.
	members map[string]map[RecordID][]RecordID
	nextID  RecordID
	// indexes maps record type -> hash indexes over its schema key
	// fields, maintained incrementally by every mutation path. nil when
	// indexing is disabled (SetIndexing(false)).
	indexes map[string][]*typeIndex
	stats   *IndexStats // shared with clones and snapshots; see IndexStats
	// shared marks a Snapshot still reading its origin's structures;
	// own clears it before the first write.
	shared bool
}

// NewDB creates an empty database for the schema. The schema must be
// valid; NewDB panics otherwise.
func NewDB(s *schema.Network) *DB {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("netstore: invalid schema: %v", err))
	}
	db := &DB{
		schema:  s,
		recs:    make(map[RecordID]*occurrence),
		byType:  make(map[string][]RecordID),
		members: make(map[string]map[RecordID][]RecordID),
		nextID:  1,
		indexes: buildIndexes(s),
		stats:   &IndexStats{},
	}
	for _, t := range s.Sets {
		db.members[t.Name] = make(map[RecordID][]RecordID)
	}
	return db
}

// Schema returns the database's schema.
func (db *DB) Schema() *schema.Network { return db.schema }

// Count returns the number of occurrences of the record type.
func (db *DB) Count(recType string) int { return len(db.byType[recType]) }

// Len returns the total number of record occurrences in the database.
func (db *DB) Len() int { return len(db.recs) }

// IDBound returns the exclusive upper bound of assigned record IDs:
// every live occurrence's ID is in [1, IDBound). Dense per-source-ID
// tables (the data translator's ID map) size themselves with it.
func (db *DB) IDBound() RecordID { return db.nextID }

// AllOf returns the occurrence IDs of a record type in insertion order.
// The returned slice is a copy.
func (db *DB) AllOf(recType string) []RecordID {
	return append([]RecordID(nil), db.byType[recType]...)
}

// EachOf visits the occurrence IDs of a record type in insertion order,
// stopping early when fn returns false. It is the allocation-free
// counterpart of AllOf: the database must not be mutated during the
// visit (use AllOf to take a snapshot when the loop body stores,
// erases, or reconnects records).
func (db *DB) EachOf(recType string, fn func(RecordID) bool) {
	for _, id := range db.byType[recType] {
		if !fn(id) {
			return
		}
	}
}

// EachMember visits the ordered member IDs of the set occurrence owned
// by owner, stopping early when fn returns false. Allocation-free
// counterpart of Members; the same no-mutation-during-visit contract as
// EachOf applies.
func (db *DB) EachMember(set string, owner RecordID, fn func(RecordID) bool) {
	occ, ok := db.members[set]
	if !ok {
		return
	}
	for _, id := range occ[owner] {
		if !fn(id) {
			return
		}
	}
}

// TypeOf returns the record type name of an occurrence, or "" if the ID
// is stale.
func (db *DB) TypeOf(id RecordID) string {
	if o, ok := db.recs[id]; ok {
		return o.typ.Name
	}
	return ""
}

// Exists reports whether the occurrence still exists.
func (db *DB) Exists(id RecordID) bool {
	_, ok := db.recs[id]
	return ok
}

// StoredData returns a copy of the occurrence's stored fields (no
// virtuals), or nil for a stale ID.
func (db *DB) StoredData(id RecordID) *value.Record {
	o, ok := db.recs[id]
	if !ok {
		return nil
	}
	return o.data.Clone()
}

// StoredDataInto copies the occurrence's stored fields into out
// (resetting it first), the allocation-free counterpart of StoredData
// for loops that reuse one staging buffer. It reports whether the
// occurrence exists; out is left reset when it does not.
func (db *DB) StoredDataInto(id RecordID, out *value.Record) bool {
	o, ok := db.recs[id]
	if !ok {
		out.Reset()
		return false
	}
	out.CopyFrom(o.data)
	return true
}

// Data returns a copy of the occurrence's record with virtual fields
// resolved through set ownership (recursively, so a virtual sourced from
// an owner's virtual — the Figure 4.4 EMP.DIV-NAME — resolves through two
// levels). Unresolvable virtuals (record not connected) surface as null.
func (db *DB) Data(id RecordID) *value.Record {
	o, ok := db.recs[id]
	if !ok {
		return nil
	}
	out := value.NewRecord()
	for _, f := range o.typ.Fields {
		if f.Virtual == nil {
			out.Set(f.Name, o.data.MustGet(f.Name))
		} else {
			out.Set(f.Name, db.resolveVirtual(o, &f))
		}
	}
	return out
}

// DataInto resolves the occurrence's record into out (resetting it
// first), the allocation-free counterpart of Data for loops that reuse
// one buffer. It reports whether the occurrence exists; out is left
// reset when it does not.
func (db *DB) DataInto(id RecordID, out *value.Record) bool {
	o, ok := db.recs[id]
	out.Reset()
	if !ok {
		return false
	}
	for _, f := range o.typ.Fields {
		if f.Virtual == nil {
			out.Set(f.Name, o.data.MustGet(f.Name))
		} else {
			out.Set(f.Name, db.resolveVirtual(o, &f))
		}
	}
	return true
}

// Field returns one field of the occurrence, stored or virtual (resolved
// as Data resolves it), without building a record — the read the FIND
// qualification and SORT paths make per candidate. ok is false exactly
// when Data(id) would be nil or would lack the field.
func (db *DB) Field(id RecordID, name string) (value.Value, bool) {
	o, ok := db.recs[id]
	if !ok {
		return value.Value{}, false
	}
	return db.fieldOf(o, name)
}

// fieldOf is Field on an occurrence already looked up.
func (db *DB) fieldOf(o *occurrence, name string) (value.Value, bool) {
	f := o.typ.Field(name)
	if f == nil {
		return value.Value{}, false
	}
	if f.Virtual != nil {
		return db.resolveVirtual(o, f), true
	}
	return o.data.MustGet(name), true
}

func (db *DB) resolveVirtual(o *occurrence, f *schema.Field) value.Value {
	ownerID, connected := o.ownerIn(f.Virtual.ViaSet)
	if !connected || ownerID == systemOwner {
		return value.NullValue()
	}
	owner, ok := db.recs[ownerID]
	if !ok {
		return value.NullValue()
	}
	of := owner.typ.Field(f.Virtual.Using)
	if of == nil {
		return value.NullValue()
	}
	if of.Virtual != nil {
		return db.resolveVirtual(owner, of)
	}
	return owner.data.MustGet(of.Name)
}

// Members returns the ordered member IDs of the set occurrence owned by
// owner (systemOwner semantics: pass OwnerSystem). The slice is a copy.
func (db *DB) Members(set string, owner RecordID) []RecordID {
	occ, ok := db.members[set]
	if !ok {
		return nil
	}
	return append([]RecordID(nil), occ[owner]...)
}

// SystemMembers returns the members of a SYSTEM set's singular occurrence.
func (db *DB) SystemMembers(set string) []RecordID {
	return db.Members(set, systemOwner)
}

// OwnerOf returns the owner occurrence of the set occurrence containing
// id, and whether id is connected into the set at all. For SYSTEM sets
// the owner is systemOwner and the second result is still true.
func (db *DB) OwnerOf(set string, id RecordID) (RecordID, bool) {
	o, ok := db.recs[id]
	if !ok {
		return 0, false
	}
	return o.ownerIn(set)
}

// Keyed member lists — the occurrence lists of sets with keys — are
// kept in ascending set-key order (value.CompareBy over set.Keys),
// insertion order among equals. Every writer preserves it:
// insertOrdered places by binary search, BulkLoader.Close stable-sorts,
// Clone copies, and MODIFY removes a record under its old keys before
// re-inserting it under the new ones. Stored key values of one field
// share a single kind (StoreWith, STORE and MODIFY kind-check them), so
// CompareBy is a total order on them and the lookups below may binary
// search.

// lowerBound returns the first position in the keyed member list lst
// whose record sorts at or after data.
func (db *DB) lowerBound(lst []RecordID, data *value.Record, keys []string) int {
	return sort.Search(len(lst), func(i int) bool {
		return value.CompareBy(db.recs[lst[i]].data, data, keys) >= 0
	})
}

// insertOrdered connects member into the occurrence list keeping the set
// ordering: ascending by set keys, insertion order among equals (and for
// keyless sets).
func (db *DB) insertOrdered(set *schema.SetType, owner RecordID, member *occurrence) {
	lst := db.members[set.Name][owner]
	if len(set.Keys) == 0 {
		db.members[set.Name][owner] = append(lst, member.id)
		return
	}
	pos := sort.Search(len(lst), func(i int) bool {
		other := db.recs[lst[i]]
		return value.CompareBy(other.data, member.data, set.Keys) > 0
	})
	lst = append(lst, 0)
	copy(lst[pos+1:], lst[pos:])
	lst[pos] = member.id
	db.members[set.Name][owner] = lst
}

// memberPos returns m's position in lst, the member list of one
// occurrence of set, or -1 when m is not in it. A keyed list is binary
// searched for m's keys and only the run of equal keys is scanned for
// its ID; m.data must be the data m was inserted under.
func (db *DB) memberPos(set *schema.SetType, lst []RecordID, m *occurrence) int {
	if len(set.Keys) == 0 {
		for i, id := range lst {
			if id == m.id {
				return i
			}
		}
		return -1
	}
	for i := db.lowerBound(lst, m.data, set.Keys); i < len(lst); i++ {
		if lst[i] == m.id {
			return i
		}
		if value.CompareBy(db.recs[lst[i]].data, m.data, set.Keys) != 0 {
			break
		}
	}
	return -1
}

func (db *DB) removeMember(set *schema.SetType, owner RecordID, m *occurrence) {
	lst := db.members[set.Name][owner]
	i := db.memberPos(set, lst, m)
	if i < 0 {
		return
	}
	copy(lst[i:], lst[i+1:])
	lst[len(lst)-1] = 0 // clear the tail so the backing array can't alias
	db.members[set.Name][owner] = lst[:len(lst)-1]
}

// duplicateInOcc reports whether the set occurrence owned by owner already
// holds a member other than exclude with the same set-key values
// ("duplicates are not allowed within a set occurrence", §4.2). Equal
// keys form one contiguous run of the ordered list, found by binary
// search.
func (db *DB) duplicateInOcc(set *schema.SetType, owner RecordID, data *value.Record, exclude RecordID) bool {
	if len(set.Keys) == 0 {
		return false
	}
	lst := db.members[set.Name][owner]
	for i := db.lowerBound(lst, data, set.Keys); i < len(lst); i++ {
		m := db.recs[lst[i]]
		if value.CompareBy(m.data, data, set.Keys) != 0 {
			break
		}
		if m.id != exclude {
			return true
		}
	}
	return false
}

// connect wires member into set under owner, preserving ordering, after
// the duplicate check. Callers have validated set membership types.
func (db *DB) connect(set *schema.SetType, owner RecordID, member *occurrence) Status {
	if _, already := member.ownerIn(set.Name); already {
		return AlreadyMember
	}
	if db.duplicateInOcc(set, owner, member.data, -1) {
		return DuplicateInSet
	}
	db.insertOrdered(set, owner, member)
	member.links = append(member.links, setLink{set.Name, owner})
	return OK
}

// disconnect unwires member from the set; retention is the caller's
// concern (ERASE bypasses it, DISCONNECT enforces it).
func (db *DB) disconnect(set *schema.SetType, member *occurrence) {
	owner, connected := member.ownerIn(set.Name)
	if !connected {
		return
	}
	db.removeMember(set, owner, member)
	member.unlink(set.Name)
}

// eraseOccurrence removes the record and recursively applies retention
// semantics to sets it owns: MANDATORY members are erased with it (the
// §3.1 cascade that "violates the system's integrity constraints" when
// applied carelessly), OPTIONAL members are disconnected.
func (db *DB) eraseOccurrence(o *occurrence) {
	for _, set := range db.schema.SetsOwnedBy(o.typ.Name) {
		memberIDs := append([]RecordID(nil), db.members[set.Name][o.id]...)
		for _, mid := range memberIDs {
			m, ok := db.recs[mid]
			if !ok {
				continue
			}
			if set.Retention == schema.Mandatory {
				db.eraseOccurrence(m)
			} else {
				db.disconnect(set, m)
			}
		}
		delete(db.members[set.Name], o.id)
	}
	for _, l := range o.links {
		db.removeMember(db.schema.Set(l.set), l.owner, o)
	}
	o.links = nil
	// byType lists ascend by ID: IDs are assigned monotonically and
	// removals keep relative order.
	lst := db.byType[o.typ.Name]
	if i := sort.Search(len(lst), func(i int) bool { return lst[i] >= o.id }); i < len(lst) && lst[i] == o.id {
		copy(lst[i:], lst[i+1:])
		lst[len(lst)-1] = 0 // clear the tail so the backing array can't alias
		db.byType[o.typ.Name] = lst[:len(lst)-1]
	}
	db.indexRemove(o)
	delete(db.recs, o.id)
}

// OwnerSystem is the owner to pass to StoreWith for SYSTEM set
// occurrences.
const OwnerSystem = systemOwner

// StoreWith inserts a record with explicit set memberships (set name →
// owner occurrence ID; OwnerSystem for SYSTEM sets), bypassing run-unit
// currency. It is the entry point for the data translator, the bridge
// reconstructor, and the DML emulator, which place records by mapping
// description rather than by navigation. Insertion modes are not
// consulted: the memberships map says exactly which sets to connect.
func (db *DB) StoreWith(recType string, rec *value.Record, memberships map[string]RecordID) (RecordID, error) {
	db.own()
	typ := db.schema.Record(recType)
	if typ == nil {
		return 0, fmt.Errorf("netstore: unknown record type %s", recType)
	}
	data := value.NewRecord()
	for _, f := range typ.Fields {
		if f.Virtual != nil {
			continue
		}
		v, _ := rec.Get(f.Name)
		if !v.IsNull() && v.Kind() != f.Kind {
			return 0, fmt.Errorf("netstore: %s.%s: value kind %v, field kind %v",
				recType, f.Name, v.Kind(), f.Kind)
		}
		data.Set(f.Name, v)
	}
	type target struct {
		set   *schema.SetType
		owner RecordID
	}
	var targets []target
	for setName, owner := range memberships {
		set := db.schema.Set(setName)
		if set == nil {
			return 0, fmt.Errorf("netstore: unknown set %s", setName)
		}
		if set.Member != recType {
			return 0, fmt.Errorf("netstore: %s is not the member type of set %s", recType, setName)
		}
		if set.IsSystem() {
			if owner != OwnerSystem {
				return 0, fmt.Errorf("netstore: set %s is SYSTEM-owned", setName)
			}
		} else {
			o, ok := db.recs[owner]
			if !ok {
				return 0, fmt.Errorf("netstore: set %s: owner %d does not exist", setName, owner)
			}
			if o.typ.Name != set.Owner {
				return 0, fmt.Errorf("netstore: set %s: owner %d is a %s, not a %s",
					setName, owner, o.typ.Name, set.Owner)
			}
		}
		if db.duplicateInOcc(set, owner, data, -1) {
			return 0, fmt.Errorf("netstore: set %s: duplicate set key in occurrence", setName)
		}
		targets = append(targets, target{set, owner})
	}
	o := &occurrence{
		id:    db.nextID,
		typ:   typ,
		data:  data,
		links: make([]setLink, 0, len(targets)),
	}
	db.nextID++
	db.recs[o.id] = o
	db.byType[recType] = append(db.byType[recType], o.id)
	db.indexAdd(o)
	for _, tg := range targets {
		db.insertOrdered(tg.set, tg.owner, o)
		o.links = append(o.links, setLink{tg.set.Name, tg.owner})
	}
	return o.id, nil
}

// Clone returns an independent deep copy of the database. Record IDs
// are preserved. It is also the copy a Snapshot takes on its first
// write.
func (db *DB) Clone() *DB {
	c := NewDB(db.schema.Clone())
	c.nextID = db.nextID
	// All links share one slab; each record's window is capped at its
	// own length, so a later CONNECT reallocates instead of overrunning
	// a neighbour.
	nLinks := 0
	for _, o := range db.recs {
		nLinks += len(o.links)
	}
	slab := make([]setLink, 0, nLinks)
	for id, o := range db.recs {
		lo := len(slab)
		slab = append(slab, o.links...)
		c.recs[id] = &occurrence{
			id:    o.id,
			typ:   c.schema.Record(o.typ.Name),
			data:  o.data.Clone(),
			links: slab[lo:len(slab):len(slab)],
		}
	}
	for t, ids := range db.byType {
		c.byType[t] = append([]RecordID(nil), ids...)
	}
	for s, occs := range db.members {
		for owner, lst := range occs {
			c.members[s][owner] = append([]RecordID(nil), lst...)
		}
	}
	// Rebuild rather than deep-copy the indexes (same result, simpler),
	// and share the stats counters so probes on clones — the verify
	// runs execute on clones — aggregate with the original's.
	c.SetIndexing(db.indexes != nil)
	c.stats = db.stats
	return c
}

// Snapshot returns a copy of the database that costs O(1) to take: it
// reads the origin's structures directly until its first write, which
// gives it a private deep copy (own). Verification runs every program
// on snapshots, so a read-only program copies nothing. The origin must
// not be written while a snapshot of it is in use; any number of
// snapshots of one origin may be read and written concurrently. Record
// IDs are preserved and the IndexStats are shared, as with Clone.
func (db *DB) Snapshot() *DB {
	s := *db
	s.shared = true
	return &s
}

// own replaces a snapshot's shared structures with Clone's deep copy of
// them, in place, so Sessions already open on the snapshot stay valid.
// Every mutating entry point calls it first; on a database that owns
// its structures it does nothing.
func (db *DB) own() {
	if db.shared {
		*db = *db.Clone()
	}
}
