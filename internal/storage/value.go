// Package storage implements the typed relational storage substrate of the
// crowd-enabled database: values, schemas, row-oriented tables, and a
// catalog. It supports the one operation ordinary engines forbid and this
// paper requires: adding a column to a live table at query time
// (schema expansion), with the new column initially full of NULLs that a
// crowd or perceptual-space strategy then fills in.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindText
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
//
// NULL is used both for ordinary missing data and for "not yet elicited"
// perceptual attributes; the schema-expansion machinery in internal/core
// distinguishes the two via column metadata, not via the value itself.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool wraps a boolean.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Int wraps an integer.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float wraps a float.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Text wraps a string.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if the value is not a
// boolean.
func (v Value) AsBool() (val, ok bool) { return v.b, v.kind == KindBool }

// AsInt returns the integer payload, converting from float when lossless.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		i := int64(v.f)
		if float64(i) == v.f {
			return i, true
		}
	}
	return 0, false
}

// AsFloat returns the numeric payload as float64 (ints convert).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	}
	return 0, false
}

// AsText returns the string payload; ok is false for non-text values.
func (v Value) AsText() (string, bool) { return v.s, v.kind == KindText }

// String renders the value the way the REPL prints it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindText:
		return v.s
	default:
		return "?"
	}
}

// Equal reports SQL equality between two values. NULL never equals
// anything, including NULL (three-valued logic is handled by the caller;
// Equal is only called on non-NULL operands by the engine, but is defensive
// anyway). Numeric values compare across int/float.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.kind == KindBool || o.kind == KindBool {
		vb, ok1 := v.AsBool()
		ob, ok2 := o.AsBool()
		return ok1 && ok2 && vb == ob
	}
	if v.kind == KindText || o.kind == KindText {
		vs, ok1 := v.AsText()
		os, ok2 := o.AsText()
		return ok1 && ok2 && vs == os
	}
	vf, ok1 := v.AsFloat()
	of, ok2 := o.AsFloat()
	return ok1 && ok2 && vf == of
}

// AppendKey appends v's hash-key encoding to dst — the one byte codec
// behind hash indexes, multi-column join keys, DISTINCT and GROUP BY. Two
// values encode alike exactly when they are the same key: the kind tag
// keeps 1, '1' and true apart, a float's -0 is 0 and every NaN one key
// (FloatKeyBits), and text is length-prefixed, so no byte inside it can
// forge a boundary between the components of a composite key. numeric is
// the one thing the callers differ in: with it INTEGER and FLOAT share the
// float form, as `=` and Equal compare them (an index probe, a join key);
// without it 1 and 1.0 stay two keys (DISTINCT, GROUP BY). NULL is a key
// of its own here; callers under whose semantics NULL matches nothing
// drop it before encoding.
func AppendKey(dst []byte, v Value, numeric bool) []byte {
	switch v.kind {
	case KindBool:
		if v.b {
			return append(dst, byte(KindBool), 1)
		}
		return append(dst, byte(KindBool), 0)
	case KindInt:
		if !numeric {
			return binary.LittleEndian.AppendUint64(append(dst, byte(KindInt)), uint64(v.i))
		}
		return binary.LittleEndian.AppendUint64(append(dst, byte(KindFloat)), FloatKeyBits(float64(v.i)))
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(dst, byte(KindFloat)), FloatKeyBits(v.f))
	case KindText:
		dst = binary.LittleEndian.AppendUint64(append(dst, byte(KindText)), uint64(len(v.s)))
		return append(dst, v.s...)
	}
	return append(dst, byte(KindNull))
}

// FloatKeyBits is f's bit pattern as a hash key: -0 as 0, every NaN the
// same one.
func FloatKeyBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// Compare orders two non-NULL values of compatible types: -1, 0, +1.
// It returns an error for incomparable kinds (e.g. TEXT vs INT), matching
// the engine's strict typing of comparison predicates.
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, fmt.Errorf("storage: cannot compare NULL values")
	}
	switch {
	case v.kind == KindText && o.kind == KindText:
		vs, os := v.s, o.s
		switch {
		case vs < os:
			return -1, nil
		case vs > os:
			return 1, nil
		}
		return 0, nil
	case v.kind == KindBool || o.kind == KindBool:
		vb, ok1 := v.AsBool()
		ob, ok2 := o.AsBool()
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("storage: cannot compare %s with %s", v.kind, o.kind)
		}
		bi := func(b bool) int {
			if b {
				return 1
			}
			return 0
		}
		return bi(vb) - bi(ob), nil
	default:
		vf, ok1 := v.AsFloat()
		of, ok2 := o.AsFloat()
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("storage: cannot compare %s with %s", v.kind, o.kind)
		}
		switch {
		case vf < of:
			return -1, nil
		case vf > of:
			return 1, nil
		}
		return 0, nil
	}
}

// CoercibleTo reports whether the value can be stored in a column of kind k
// without information loss. NULL is storable everywhere.
func (v Value) CoercibleTo(k Kind) bool {
	if v.kind == KindNull {
		return true
	}
	switch k {
	case KindBool:
		return v.kind == KindBool
	case KindInt:
		_, ok := v.AsInt()
		return ok
	case KindFloat:
		_, ok := v.AsFloat()
		return ok
	case KindText:
		return v.kind == KindText
	default:
		return false
	}
}

// Coerce converts the value to kind k (see CoercibleTo). It returns an
// error when the conversion is not allowed.
func (v Value) Coerce(k Kind) (Value, error) {
	if v.kind == KindNull {
		return Null(), nil
	}
	switch k {
	case KindBool:
		if b, ok := v.AsBool(); ok {
			return Bool(b), nil
		}
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return Int(i), nil
		}
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
	case KindText:
		if s, ok := v.AsText(); ok {
			return Text(s), nil
		}
	}
	return Null(), fmt.Errorf("storage: cannot coerce %s value %q to %s", v.kind, v.String(), k)
}
