// Package hierstore is the hierarchical (IMS-style) engine: segment
// occurrences arranged in hierarchic sequence, navigated by DL/I calls
// (GU, GN, GNP, ISRT, DLET, REPL) with segment search arguments.
//
// It exists because the paper's survey of program-conversion research
// leans on hierarchical systems — Mehl & Wang's order transformation of
// IMS structures (§2.2) is reproduced on this engine — and because the
// framework (§5.1) must "span data models".
package hierstore

import (
	"fmt"
	"sort"
	"strings"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// Status is the DL/I status code, following IMS's two-character
// convention: "  " means success.
type Status string

// DL/I status codes.
const (
	OK Status = "  " // call succeeded
	GE Status = "GE" // segment not found
	GB Status = "GB" // end of database reached on get-next
	GP Status = "GP" // no parentage established for GNP
	II Status = "II" // insert would duplicate an existing segment
	AC Status = "AC" // SSA names segments out of hierarchic order
	AJ Status = "AJ" // malformed SSA (unknown segment or field)
	DJ Status = "DJ" // DLET/REPL without a preceding successful get
	DA Status = "DA" // REPL attempted to change the sequence field
)

// String renders the status for reports ("  " prints as OK).
func (s Status) String() string {
	if s == OK {
		return "OK"
	}
	return string(s)
}

// CompareOp is the comparison operator inside a qualified SSA.
type CompareOp string

// SSA comparison operators.
const (
	EQ  CompareOp = "="
	NE  CompareOp = "<>"
	LT  CompareOp = "<"
	LE  CompareOp = "<="
	GT  CompareOp = ">"
	GE_ CompareOp = ">="
)

// Qual is one qualification of an SSA: FIELD op VALUE.
type Qual struct {
	Field string
	Op    CompareOp
	Value value.Value
}

func (q Qual) matches(rec *value.Record) bool {
	got := rec.MustGet(q.Field)
	c, ok := got.Compare(q.Value)
	if !ok {
		return false
	}
	switch q.Op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE_:
		return c >= 0
	}
	return false
}

// SSA is a segment search argument: a segment name plus optional
// qualifications, all of which must hold.
type SSA struct {
	Segment string
	Quals   []Qual
}

// Q is a convenience constructor for a qualified SSA.
func Q(segment, field string, op CompareOp, v value.Value) SSA {
	return SSA{Segment: segment, Quals: []Qual{{Field: field, Op: op, Value: v}}}
}

// U is a convenience constructor for an unqualified SSA.
func U(segment string) SSA { return SSA{Segment: segment} }

// SegID identifies a segment occurrence. IDs are never reused.
type SegID int64

type seg struct {
	id     SegID
	typ    *schema.Segment
	data   *value.Record
	parent SegID // 0 for root occurrences
	// children maps child segment type name to ordered occurrence IDs.
	children map[string][]SegID
}

// DB is an in-memory hierarchical database instance.
type DB struct {
	schema *schema.Hierarchy
	segs   map[SegID]*seg
	roots  []SegID
	nextID SegID
	// shared marks a Snapshot still reading its origin's structures;
	// own clears it before the first write.
	shared bool
}

// NewDB creates an empty database for the hierarchy. The schema must be
// valid; NewDB panics otherwise.
func NewDB(h *schema.Hierarchy) *DB {
	if err := h.Validate(); err != nil {
		panic(fmt.Sprintf("hierstore: invalid schema: %v", err))
	}
	return &DB{schema: h, segs: make(map[SegID]*seg), nextID: 1}
}

// Schema returns the database's hierarchy.
func (db *DB) Schema() *schema.Hierarchy { return db.schema }

// Count returns the number of occurrences of the segment type.
func (db *DB) Count(segType string) int {
	n := 0
	for _, s := range db.segs {
		if s.typ.Name == segType {
			n++
		}
	}
	return n
}

// Data returns a copy of the occurrence's fields, or nil for a stale ID.
func (db *DB) Data(id SegID) *value.Record {
	s, ok := db.segs[id]
	if !ok {
		return nil
	}
	return s.data.Clone()
}

// TypeOf returns the segment type name of an occurrence, or "".
func (db *DB) TypeOf(id SegID) string {
	if s, ok := db.segs[id]; ok {
		return s.typ.Name
	}
	return ""
}

// ParentOf returns the parent occurrence, or 0 for roots and stale IDs.
func (db *DB) ParentOf(id SegID) SegID {
	if s, ok := db.segs[id]; ok {
		return s.parent
	}
	return 0
}

// ChildrenOf returns the ordered child occurrences of the given child
// segment type. The slice is a copy.
func (db *DB) ChildrenOf(id SegID, childType string) []SegID {
	s, ok := db.segs[id]
	if !ok {
		return nil
	}
	return append([]SegID(nil), s.children[childType]...)
}

// Roots returns the root occurrences in sequence order. The slice is a
// copy.
func (db *DB) Roots() []SegID { return append([]SegID(nil), db.roots...) }

// hierarchicSequence appends the subtree of id in hierarchic (preorder)
// sequence: the segment, then each child type in schema order, each
// occurrence in sequence order.
func (db *DB) hierarchicSequence(id SegID, out *[]SegID) {
	s := db.segs[id]
	*out = append(*out, id)
	for _, childType := range s.typ.Children {
		for _, c := range s.children[childType.Name] {
			db.hierarchicSequence(c, out)
		}
	}
}

// Sequence returns every occurrence in database hierarchic sequence.
func (db *DB) Sequence() []SegID {
	var out []SegID
	for _, r := range db.roots {
		db.hierarchicSequence(r, &out)
	}
	return out
}

// insertOrdered places id among siblings, ascending by the type's
// sequence field (insertion order for types without one, and among
// twins with equal sequence values).
func insertOrdered(db *DB, lst []SegID, s *seg) []SegID {
	if s.typ.Seq == "" {
		return append(lst, s.id)
	}
	pos := sort.Search(len(lst), func(i int) bool {
		other := db.segs[lst[i]]
		c, _ := other.data.MustGet(s.typ.Seq).Compare(s.data.MustGet(s.typ.Seq))
		return c > 0
	})
	lst = append(lst, 0)
	copy(lst[pos+1:], lst[pos:])
	lst[pos] = s.id
	return lst
}

// Clone returns an independent deep copy, preserving segment IDs.
func (db *DB) Clone() *DB {
	c := NewDB(db.schema.Clone())
	c.nextID = db.nextID
	c.roots = append([]SegID(nil), db.roots...)
	for id, s := range db.segs {
		cs := &seg{
			id:       s.id,
			typ:      c.schema.Segment(s.typ.Name),
			data:     s.data.Clone(),
			parent:   s.parent,
			children: make(map[string][]SegID, len(s.children)),
		}
		for t, lst := range s.children {
			cs.children[t] = append([]SegID(nil), lst...)
		}
		c.segs[id] = cs
	}
	return c
}

// Snapshot returns a copy of the database that costs O(1) to take: it
// reads the origin's structures directly until its first write, which
// gives it a private deep copy (own). Verification runs every program
// on snapshots, so a read-only program copies nothing. The origin must
// not be written while a snapshot of it is in use; any number of
// snapshots of one origin may be read and written concurrently. Segment
// IDs are preserved, as with Clone.
func (db *DB) Snapshot() *DB {
	s := *db
	s.shared = true
	return &s
}

// own replaces a snapshot's shared structures with Clone's deep copy of
// them, in place, so Sessions already open on the snapshot stay valid.
// Every mutating call (ISRT, DLET, REPL) calls it first; on a database
// that owns its structures it does nothing.
func (db *DB) own() {
	if db.shared {
		*db = *db.Clone()
	}
}

// Session is a PCB: the position and parentage of one program against the
// database, plus the DL/I status code register.
type Session struct {
	db        *DB
	status    Status
	position  SegID // current position in hierarchic sequence, 0 = before first
	parentage SegID // parentage established by the last successful GU/GN/GNP
}

// NewSession opens a PCB on the database.
func NewSession(db *DB) *Session { return &Session{db: db} }

// DB returns the underlying database.
func (s *Session) DB() *DB { return s.db }

// Status returns the status code of the last call.
func (s *Session) Status() Status { return s.status }

// Position returns the current segment occurrence, or 0.
func (s *Session) Position() SegID { return s.position }

func (s *Session) fail(st Status) Status {
	s.status = st
	return st
}

// checkSSAs validates an SSA list: segments exist, qualification fields
// exist, and the segments form a root-to-target path in the hierarchy.
func (s *Session) checkSSAs(ssas []SSA) Status {
	if len(ssas) == 0 {
		return OK
	}
	for _, a := range ssas {
		st := s.db.schema.Segment(a.Segment)
		if st == nil {
			return AJ
		}
		for _, q := range a.Quals {
			if st.Field(q.Field) == nil {
				return AJ
			}
		}
	}
	// Path check: each SSA's segment must be an ancestor type of the next.
	for i := 0; i+1 < len(ssas); i++ {
		p := s.db.schema.Parent(ssas[i+1].Segment)
		if p == nil || p.Name != ssas[i].Segment {
			return AC
		}
	}
	return OK
}

func (a SSA) matches(rec *value.Record) bool {
	for _, q := range a.Quals {
		if !q.matches(rec) {
			return false
		}
	}
	return true
}

// pathMatches reports whether the occurrence and its ancestors satisfy
// the SSA path (last SSA = the occurrence's own type).
func (s *Session) pathMatches(id SegID, ssas []SSA) bool {
	sg := s.db.segs[id]
	if sg.typ.Name != ssas[len(ssas)-1].Segment {
		return false
	}
	cur := sg
	for i := len(ssas) - 1; i >= 0; i-- {
		if cur == nil || cur.typ.Name != ssas[i].Segment || !ssas[i].matches(cur.data) {
			return false
		}
		cur = s.db.segs[cur.parent]
	}
	return true
}

// GU implements Get Unique: position at the first segment in hierarchic
// sequence satisfying the SSA path, searching from the start.
func (s *Session) GU(ssas ...SSA) (*value.Record, Status) {
	if st := s.checkSSAs(ssas); st != OK {
		return nil, s.fail(st)
	}
	if len(ssas) == 0 {
		// GU with no SSA: first root.
		if len(s.db.roots) == 0 {
			return nil, s.fail(GE)
		}
		return s.arrive(s.db.roots[0])
	}
	for _, id := range s.db.Sequence() {
		if s.pathMatches(id, ssas) {
			return s.arrive(id)
		}
	}
	return nil, s.fail(GE)
}

// GN implements Get Next: advance in hierarchic sequence from the current
// position to the next segment satisfying the SSAs (any segment if none).
func (s *Session) GN(ssas ...SSA) (*value.Record, Status) {
	if st := s.checkSSAs(ssas); st != OK {
		return nil, s.fail(st)
	}
	seqn := s.db.Sequence()
	start := 0
	if s.position != 0 {
		for i, id := range seqn {
			if id == s.position {
				start = i + 1
				break
			}
		}
	}
	for _, id := range seqn[start:] {
		if len(ssas) == 0 || s.pathMatches(id, ssas) {
			return s.arrive(id)
		}
	}
	if len(ssas) == 0 {
		return nil, s.fail(GB)
	}
	return nil, s.fail(GE)
}

// GNP implements Get Next Within Parent: like GN but only within the
// descendants of the parentage position.
func (s *Session) GNP(ssas ...SSA) (*value.Record, Status) {
	if st := s.checkSSAs(ssas); st != OK {
		return nil, s.fail(st)
	}
	if s.parentage == 0 || !s.exists(s.parentage) {
		return nil, s.fail(GP)
	}
	var subtree []SegID
	s.db.hierarchicSequence(s.parentage, &subtree)
	subtree = subtree[1:] // exclude the parent itself
	start := 0
	if s.position != 0 && s.position != s.parentage {
		for i, id := range subtree {
			if id == s.position {
				start = i + 1
				break
			}
		}
	}
	for _, id := range subtree[start:] {
		if len(ssas) == 0 || s.pathMatches(id, ssas) {
			// GNP moves position but keeps parentage.
			sg := s.db.segs[id]
			s.position = id
			s.status = OK
			return sg.data.Clone(), OK
		}
	}
	return nil, s.fail(GE)
}

// arrive records a successful get: position and parentage move to id.
func (s *Session) arrive(id SegID) (*value.Record, Status) {
	s.position = id
	s.parentage = id
	s.status = OK
	return s.db.segs[id].data.Clone(), OK
}

func (s *Session) exists(id SegID) bool {
	_, ok := s.db.segs[id]
	return ok
}

// ISRT implements Insert: the last SSA names the segment type to insert
// (unqualified); any preceding SSAs select the parent path. A root
// segment is inserted with a single SSA. Twins with an equal sequence
// value are rejected with II, matching IMS's no-duplicate-keys rule.
func (s *Session) ISRT(data *value.Record, ssas ...SSA) Status {
	s.db.own()
	if len(ssas) == 0 {
		return s.fail(AJ)
	}
	if st := s.checkSSAs(ssas); st != OK {
		return s.fail(st)
	}
	target := s.db.schema.Segment(ssas[len(ssas)-1].Segment)
	// Validate the record shape against the segment type.
	rec := value.NewRecord()
	for _, f := range target.Fields {
		v, _ := data.Get(f.Name)
		if !v.IsNull() && v.Kind() != f.Kind {
			return s.fail(AJ)
		}
		rec.Set(f.Name, v)
	}
	for _, n := range data.Names() {
		if target.Field(n) == nil {
			return s.fail(AJ)
		}
	}

	var parentID SegID
	if len(ssas) == 1 {
		if s.db.schema.Root.Name != target.Name {
			return s.fail(AC) // non-root insert requires the parent path
		}
	} else {
		// Locate the parent by the leading SSAs.
		parentPath := ssas[:len(ssas)-1]
		found := false
		for _, id := range s.db.Sequence() {
			if s.pathMatches(id, parentPath) {
				parentID = id
				found = true
				break
			}
		}
		if !found {
			return s.fail(GE)
		}
	}

	// Duplicate check on the sequence field among twins.
	var siblings []SegID
	if parentID == 0 {
		siblings = s.db.roots
	} else {
		siblings = s.db.segs[parentID].children[target.Name]
	}
	if target.Seq != "" {
		for _, sib := range siblings {
			if s.db.segs[sib].data.MustGet(target.Seq).Equal(rec.MustGet(target.Seq)) {
				return s.fail(II)
			}
		}
	}

	sg := &seg{
		id:       s.db.nextID,
		typ:      target,
		data:     rec,
		parent:   parentID,
		children: make(map[string][]SegID),
	}
	s.db.nextID++
	s.db.segs[sg.id] = sg
	if parentID == 0 {
		s.db.roots = insertOrdered(s.db, s.db.roots, sg)
	} else {
		p := s.db.segs[parentID]
		p.children[target.Name] = insertOrdered(s.db, p.children[target.Name], sg)
	}
	s.position = sg.id
	s.parentage = sg.id
	return s.fail(OK)
}

// DLET implements Delete: removes the segment at the current position and
// its whole subtree (IMS deletes dependents with their parent), then
// clears the position.
func (s *Session) DLET() Status {
	s.db.own()
	if s.position == 0 || !s.exists(s.position) {
		return s.fail(DJ)
	}
	var doomed []SegID
	s.db.hierarchicSequence(s.position, &doomed)
	root := s.db.segs[s.position]
	if root.parent == 0 {
		for i, r := range s.db.roots {
			if r == root.id {
				s.db.roots = append(s.db.roots[:i], s.db.roots[i+1:]...)
				break
			}
		}
	} else {
		p := s.db.segs[root.parent]
		lst := p.children[root.typ.Name]
		for i, c := range lst {
			if c == root.id {
				p.children[root.typ.Name] = append(lst[:i], lst[i+1:]...)
				break
			}
		}
	}
	for _, id := range doomed {
		delete(s.db.segs, id)
	}
	s.position = 0
	s.parentage = 0
	return s.fail(OK)
}

// REPL implements Replace: overwrites the named fields of the segment at
// the current position. Changing the sequence field is refused with DA,
// as in IMS.
func (s *Session) REPL(data *value.Record) Status {
	s.db.own()
	if s.position == 0 || !s.exists(s.position) {
		return s.fail(DJ)
	}
	sg := s.db.segs[s.position]
	for _, n := range data.Names() {
		f := sg.typ.Field(n)
		if f == nil {
			return s.fail(AJ)
		}
		v := data.MustGet(n)
		if !v.IsNull() && v.Kind() != f.Kind {
			return s.fail(AJ)
		}
		if n == sg.typ.Seq && !v.Equal(sg.data.MustGet(n)) {
			return s.fail(DA)
		}
	}
	for _, n := range data.Names() {
		sg.data.Set(n, data.MustGet(n))
	}
	return s.fail(OK)
}

// Reset clears position and parentage, returning the PCB to the start of
// the database.
func (s *Session) Reset() {
	s.position = 0
	s.parentage = 0
	s.status = OK
}

// DumpSequence renders the database in hierarchic sequence for debugging
// and golden tests: one "TYPE{fields}" line per segment, indented by depth.
func (db *DB) DumpSequence() string {
	var b strings.Builder
	var walk func(id SegID, depth int)
	walk = func(id SegID, depth int) {
		sg := db.segs[id]
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sg.typ.Name)
		b.WriteString(sg.data.String())
		b.WriteByte('\n')
		for _, ct := range sg.typ.Children {
			for _, c := range sg.children[ct.Name] {
				walk(c, depth+1)
			}
		}
	}
	for _, r := range db.roots {
		walk(r, 0)
	}
	return b.String()
}
