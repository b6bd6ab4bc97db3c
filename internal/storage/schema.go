package storage

import (
	"fmt"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// Schema is an ordered list of columns with unique case-insensitive names.
// Once attached to a published table version a Schema is immutable.
//
// AddColumn does not copy it. The schemas of one table's history are
// prefixes of one column list and share one name index, the way the
// versions' tails share their backing arrays: extending a schema writes
// the next slot of the list and adds one name to the index, and every
// older schema reads only its own prefix of the list and ignores the
// index's entries at or beyond its length. Only the extension that claims
// the slot (names.top) writes it; an extension that finds the slot
// claimed, the list full or the index half full starts its own list and
// index, so the copies a table pays are amortized over the columns added.
type Schema struct {
	cols  []Column // this schema's prefix of the shared list
	names *nameIndex
}

// nameIndex is an open-addressing hash index from case-folded column name
// to column position, shared by the schemas of one column list. Entries
// are only ever added, each into an empty slot, so a reader that probes
// while a writer adds sees either an empty slot or a complete entry.
type nameIndex struct {
	slots []atomic.Int32 // column position + 1; 0 = empty
	top   atomic.Int32   // the columns the list holds: the next slot's claim
}

// NewSchema builds a schema from cols. Duplicate names are an error.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: make([]Column, 0, len(cols)), names: newNameIndex(len(cols))}
	for _, c := range cols {
		if err := s.validate(c); err != nil {
			return nil, err
		}
		s.names.add(c.Name, len(s.cols))
		s.cols = append(s.cols, c)
	}
	s.names.top.Store(int32(len(s.cols)))
	return s, nil
}

// newNameIndex returns an empty index with room for n names at a load of
// at most one half.
func newNameIndex(n int) *nameIndex {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return &nameIndex{slots: make([]atomic.Int32, size)}
}

// validate checks that c could be added without mutating anything — split
// from with so AddColumn can validate before logging the mutation.
func (s *Schema) validate(c Column) error {
	if c.Name == "" {
		return fmt.Errorf("storage: empty column name")
	}
	if _, dup := s.Lookup(c.Name); dup {
		return fmt.Errorf("storage: duplicate column %q", c.Name)
	}
	return nil
}

// with returns s extended by c, which must already be validated against
// s. It shares s's list and index when it wins the claim on the next slot
// and both have room, and copies them (with room to double) otherwise.
func (s *Schema) with(c Column) *Schema {
	n := len(s.cols)
	if n < cap(s.cols) && 2*(n+1) <= len(s.names.slots) && s.names.top.CompareAndSwap(int32(n), int32(n+1)) {
		ns := &Schema{cols: append(s.cols, c), names: s.names}
		s.names.add(c.Name, n)
		return ns
	}
	ns := &Schema{cols: make([]Column, n+1, 2*(n+1)), names: newNameIndex(2 * (n + 1))}
	copy(ns.cols, s.cols)
	ns.cols[n] = c
	for i, col := range ns.cols {
		ns.names.add(col.Name, i)
	}
	ns.names.top.Store(int32(n + 1))
	return ns
}

// add enters name at position pos into the first empty slot of its probe
// sequence. The caller is the index's only writer (it holds the claim).
func (x *nameIndex) add(name string, pos int) {
	mask := uint32(len(x.slots) - 1)
	for i := foldHash(name) & mask; ; i = (i + 1) & mask {
		if x.slots[i].Load() == 0 {
			x.slots[i].Store(int32(pos + 1))
			return
		}
	}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// Lookup returns the index of the named column (case-insensitive). It
// allocates nothing.
func (s *Schema) Lookup(name string) (int, bool) {
	x := s.names
	mask := uint32(len(x.slots) - 1)
	for i := foldHash(name) & mask; ; i = (i + 1) & mask {
		e := int(x.slots[i].Load())
		if e == 0 {
			return 0, false
		}
		if pos := e - 1; pos < len(s.cols) && foldEqual(s.cols[pos].Name, name) {
			return pos, true
		}
	}
}

// nextFolded returns the first rune of s lower-cased, and its width in s:
// strings.ToLower's mapping, an invalid byte read as utf8.RuneError.
func nextFolded(s string) (rune, int) {
	if r := s[0]; r < utf8.RuneSelf {
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		return rune(r), 1
	}
	r, n := utf8.DecodeRuneInString(s)
	return unicode.ToLower(r), n
}

// foldEqual reports strings.ToLower(a) == strings.ToLower(b) without
// building either.
func foldEqual(a, b string) bool {
	for a != "" && b != "" {
		ra, na := nextFolded(a)
		rb, nb := nextFolded(b)
		if ra != rb {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return a == b
}

// foldHash is FNV-1a over the runes of strings.ToLower(s), so that names
// foldEqual calls equal hash alike.
func foldHash(s string) uint32 {
	h := uint32(2166136261)
	for s != "" {
		r, n := nextFolded(s)
		h = (h ^ uint32(r)) * 16777619
		s = s[n:]
	}
	return h
}
