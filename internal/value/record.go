package value

import (
	"fmt"
	"sort"
	"strings"
)

// Record is a flat, mutable collection of named fields. Field names are
// case-sensitive and follow the paper's hyphenated 1979 convention
// (EMP-NAME, DIV-LOC). Lookup is by name; the declared order is preserved
// for rendering and for positional operations in the engines.
type Record struct {
	names  []string
	fields map[string]Value
}

// NewRecord returns an empty record.
func NewRecord() *Record {
	return &Record{fields: make(map[string]Value)}
}

// NewRecordSize returns an empty record pre-sized for n fields, so hot
// paths that know the destination field count allocate exactly once.
func NewRecordSize(n int) *Record {
	return &Record{names: make([]string, 0, n), fields: make(map[string]Value, n)}
}

// FromPairs builds a record from alternating name, value arguments,
// which keeps test fixtures compact.
func FromPairs(pairs ...any) *Record {
	if len(pairs)%2 != 0 {
		panic("value.FromPairs: odd argument count")
	}
	r := NewRecord()
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("value.FromPairs: name %v is not a string", pairs[i]))
		}
		switch v := pairs[i+1].(type) {
		case Value:
			r.Set(name, v)
		case string:
			r.Set(name, Str(v))
		case int:
			r.Set(name, Of(int64(v)))
		case int64:
			r.Set(name, Of(v))
		case float64:
			r.Set(name, F(v))
		case bool:
			r.Set(name, B(v))
		case nil:
			r.Set(name, NullValue())
		default:
			panic(fmt.Sprintf("value.FromPairs: unsupported value %T", pairs[i+1]))
		}
	}
	return r
}

// Set stores a field, appending it to the declared order if new.
func (r *Record) Set(name string, v Value) {
	if _, ok := r.fields[name]; !ok {
		r.names = append(r.names, name)
	}
	r.fields[name] = v
}

// Get returns the named field's value and whether the field exists.
func (r *Record) Get(name string) (Value, bool) {
	v, ok := r.fields[name]
	return v, ok
}

// MustGet returns the named field's value, or null if absent.
func (r *Record) MustGet(name string) Value {
	return r.fields[name]
}

// Has reports whether the field exists.
func (r *Record) Has(name string) bool {
	_, ok := r.fields[name]
	return ok
}

// Delete removes a field if present.
func (r *Record) Delete(name string) {
	if _, ok := r.fields[name]; !ok {
		return
	}
	delete(r.fields, name)
	for i, n := range r.names {
		if n == name {
			copy(r.names[i:], r.names[i+1:])
			r.names[len(r.names)-1] = "" // clear the tail: no aliasing, no pinned string
			r.names = r.names[:len(r.names)-1]
			break
		}
	}
}

// Rename changes a field's name in place, preserving its position.
func (r *Record) Rename(from, to string) {
	v, ok := r.fields[from]
	if !ok {
		return
	}
	delete(r.fields, from)
	r.fields[to] = v
	for i, n := range r.names {
		if n == from {
			r.names[i] = to
			break
		}
	}
}

// Names returns the field names in declared order. The slice is shared;
// callers must not mutate it.
func (r *Record) Names() []string { return r.names }

// Len returns the number of fields.
func (r *Record) Len() int { return len(r.names) }

// Reset removes every field while keeping the allocated capacity, so
// hot paths can refill one record per call instead of allocating.
func (r *Record) Reset() {
	r.names = r.names[:0]
	clear(r.fields)
}

// CopyFrom resets r and refills it with o's fields in declared order,
// reusing r's allocated capacity — the pooled-buffer counterpart of
// Clone for loops that stage one record per iteration.
func (r *Record) CopyFrom(o *Record) {
	r.Reset()
	for _, n := range o.names {
		r.names = append(r.names, n)
		r.fields[n] = o.fields[n]
	}
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := &Record{
		names:  append([]string(nil), r.names...),
		fields: make(map[string]Value, len(r.fields)),
	}
	for k, v := range r.fields {
		c.fields[k] = v
	}
	return c
}

// Project returns a new record holding only the given fields, in the
// given order. Missing fields project to null, matching how the engines
// surface absent virtual fields.
func (r *Record) Project(names []string) *Record {
	p := NewRecord()
	for _, n := range names {
		p.Set(n, r.fields[n])
	}
	return p
}

// Equal reports whether two records have the same fields (by name) with
// equal values. Declared order is not significant for equality.
func (r *Record) Equal(o *Record) bool {
	if len(r.fields) != len(o.fields) {
		return false
	}
	for k, v := range r.fields {
		w, ok := o.fields[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// KeyOf concatenates the Key() forms of the named fields, for use as a
// composite index key.
func (r *Record) KeyOf(names []string) string {
	var b strings.Builder
	for _, n := range names {
		b.WriteString(r.fields[n].Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// String renders the record as NAME=value pairs in declared order,
// the form used in terminal output and conversion reports.
func (r *Record) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range r.names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", n, r.fields[n].String())
	}
	b.WriteByte('}')
	return b.String()
}

// CompareBy orders two records by the named fields, for set-key and SORT
// orderings: the first field on which CompareTotal differs decides.
func CompareBy(a, b *Record, fields []string) int {
	for _, f := range fields {
		if c := CompareTotal(a.MustGet(f), b.MustGet(f)); c != 0 {
			return c
		}
	}
	return 0
}

// CompareTotal orders two field values for sorting: by Compare when the
// pair is comparable, otherwise by the values' String forms, so that
// sorting is still total and deterministic across incomparable kinds.
// Every SORT ordering goes through it, whether it compares records or
// extracted key values.
func CompareTotal(a, b Value) int {
	if c, ok := a.Compare(b); ok {
		return c
	}
	return strings.Compare(a.String(), b.String())
}

// SortRecords sorts records in place by the given fields ascending.
// The sort is stable so that engine insertion order breaks ties, which
// the CODASYL "order is significant" semantics (§3.2) depend on.
func SortRecords(recs []*Record, fields []string) {
	sort.SliceStable(recs, func(i, j int) bool {
		return CompareBy(recs[i], recs[j], fields) < 0
	})
}
