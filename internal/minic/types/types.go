// Package types defines the mini-C static type system.
//
// The type system is deliberately weak, mirroring C99: pointers convert
// freely to and from integers, and any pointer converts to any other
// pointer. CGCM therefore never trusts these declared types when deciding
// what to communicate; it re-infers pointerhood from use (see
// internal/typeinfer), exactly as §4 of the paper describes.
package types

import (
	"fmt"
	"strings"
)

// Sizes of the scalar types in bytes. int and long are 8 bytes so pointer
// round-trips through integers are lossless, as the benchmarks require.
const (
	CharSize    = 1
	IntSize     = 8
	FloatSize   = 8 // mini-C float and double are both 64-bit
	PointerSize = 8
)

// Kind classifies a type.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Void
	Char
	Int
	Float
	Pointer
	Array
	Func
	Struct
)

// Field is one member of a struct type.
type Field struct {
	Name   string
	Type   *Type
	Offset int64 // byte offset within the struct
}

// Type is a mini-C type. Types are immutable and compared structurally
// with Equal; the scalar types are interned in package variables.
type Type struct {
	kind Kind

	// Pointer and Array element type.
	elem *Type
	// Array length in elements.
	n int64

	// Func signature.
	result *Type
	params []*Type

	// Struct name, fields, and total size (fields laid out with natural
	// 1/8-byte alignment, the whole struct rounded up to its alignment).
	name   string
	fields []Field
	size   int64
}

// Interned scalar types.
var (
	VoidType  = &Type{kind: Void}
	CharType  = &Type{kind: Char}
	IntType   = &Type{kind: Int}
	FloatType = &Type{kind: Float}
)

// PointerTo returns the type *elem.
func PointerTo(elem *Type) *Type { return &Type{kind: Pointer, elem: elem} }

// ArrayOf returns the type elem[n].
func ArrayOf(elem *Type, n int64) *Type { return &Type{kind: Array, elem: elem, n: n} }

// FuncType returns a function type.
func FuncType(result *Type, params []*Type) *Type {
	return &Type{kind: Func, result: result, params: params}
}

// StructOf lays out a struct from named field types: 8-byte scalars and
// pointers align to 8, chars to 1, and the struct's size rounds up to
// its strictest member alignment so arrays of it tile correctly.
func StructOf(name string, fields []Field) *Type {
	t := NewNamedStruct(name)
	t.SetFields(fields)
	return t
}

// NewNamedStruct creates an incomplete struct type for the given tag.
// Pointer fields may reference it while its own fields are still being
// parsed (self-referential structs); complete it with SetFields.
func NewNamedStruct(name string) *Type {
	return &Type{kind: Struct, name: name}
}

// SetFields lays out the fields of a struct created by NewNamedStruct.
func (t *Type) SetFields(fields []Field) {
	var off, align int64 = 0, 1
	laid := make([]Field, len(fields))
	for i, f := range fields {
		a := fieldAlign(f.Type)
		if a > align {
			align = a
		}
		off = roundUp(off, a)
		laid[i] = Field{Name: f.Name, Type: f.Type, Offset: off}
		off += f.Type.Size()
	}
	t.fields = laid
	t.size = roundUp(off, align)
}

func fieldAlign(t *Type) int64 {
	switch t.kind {
	case Char:
		return 1
	case Array:
		return fieldAlign(t.elem)
	case Struct:
		a := int64(1)
		for _, f := range t.fields {
			if fa := fieldAlign(f.Type); fa > a {
				a = fa
			}
		}
		return a
	default:
		return 8
	}
}

func roundUp(v, a int64) int64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}

// FieldByName returns the named field of a struct type.
func (t *Type) FieldByName(name string) (Field, bool) {
	for _, f := range t.fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Fields returns the struct's laid-out fields.
func (t *Type) Fields() []Field { return t.fields }

// StructName returns a struct type's tag name.
func (t *Type) StructName() string { return t.name }

// IsStruct reports whether t is a struct type.
func (t *Type) IsStruct() bool { return t != nil && t.kind == Struct }

// Kind returns the type's kind.
func (t *Type) Kind() Kind { return t.kind }

// Elem returns the element type of a pointer or array.
func (t *Type) Elem() *Type { return t.elem }

// Len returns the element count of an array type.
func (t *Type) Len() int64 { return t.n }

// Result returns the result type of a function type.
func (t *Type) Result() *Type { return t.result }

// Params returns the parameter types of a function type.
func (t *Type) Params() []*Type { return t.params }

// IsVoid reports whether t is void.
func (t *Type) IsVoid() bool { return t != nil && t.kind == Void }

// IsInteger reports whether t is char or int.
func (t *Type) IsInteger() bool { return t != nil && (t.kind == Char || t.kind == Int) }

// IsFloat reports whether t is a floating point type.
func (t *Type) IsFloat() bool { return t != nil && t.kind == Float }

// IsArithmetic reports whether t is an integer or floating type.
func (t *Type) IsArithmetic() bool { return t.IsInteger() || t.IsFloat() }

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t != nil && t.kind == Pointer }

// IsArray reports whether t is an array type.
func (t *Type) IsArray() bool { return t != nil && t.kind == Array }

// IsScalar reports whether t occupies a single machine slot (arithmetic
// or pointer).
func (t *Type) IsScalar() bool { return t.IsArithmetic() || t.IsPointer() }

// Size returns the size of t in bytes. Function and void types have size 0.
func (t *Type) Size() int64 {
	switch t.kind {
	case Char:
		return CharSize
	case Int:
		return IntSize
	case Float:
		return FloatSize
	case Pointer:
		return PointerSize
	case Array:
		return t.n * t.elem.Size()
	case Struct:
		return t.size
	default:
		return 0
	}
}

// Decay returns the type after C array-to-pointer decay: an array type
// becomes a pointer to its element type; other types are unchanged.
func (t *Type) Decay() *Type {
	if t.IsArray() {
		return PointerTo(t.elem)
	}
	return t
}

// IndirectionDepth returns the pointer indirection depth of t after decay:
// 0 for scalars, 1 for T*, 2 for T**, and so on.
func (t *Type) IndirectionDepth() int {
	d := 0
	u := t.Decay()
	for u.IsPointer() {
		d++
		u = u.elem.Decay()
	}
	return d
}

// Equal reports structural type equality.
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != b.kind {
		return false
	}
	switch a.kind {
	case Void, Char, Int, Float:
		return true
	case Pointer:
		return Equal(a.elem, b.elem)
	case Array:
		return a.n == b.n && Equal(a.elem, b.elem)
	case Func:
		if !Equal(a.result, b.result) || len(a.params) != len(b.params) {
			return false
		}
		for i := range a.params {
			if !Equal(a.params[i], b.params[i]) {
				return false
			}
		}
		return true
	case Struct:
		// Structs are nominal: same tag means same type (the parser
		// interns one Type per declaration).
		return a.name == b.name
	}
	return false
}

// ConvertibleTo reports whether a value of type t may be converted
// (explicitly or implicitly) to type u. Mini-C keeps C's permissiveness:
// all scalar conversions are allowed, including pointer<->integer and
// pointer<->pointer.
func (t *Type) ConvertibleTo(u *Type) bool {
	t, u = t.Decay(), u.Decay()
	if Equal(t, u) {
		return true
	}
	return t.IsScalar() && u.IsScalar()
}

// String renders the type in C-ish syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.kind {
	case Invalid:
		return "<invalid>"
	case Void:
		return "void"
	case Char:
		return "char"
	case Int:
		return "int"
	case Float:
		return "float"
	case Pointer:
		return t.elem.String() + "*"
	case Array:
		return fmt.Sprintf("%s[%d]", t.elem, t.n)
	case Func:
		var sb strings.Builder
		sb.WriteString(t.result.String())
		sb.WriteString("(")
		for i, p := range t.params {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(p.String())
		}
		sb.WriteString(")")
		return sb.String()
	case Struct:
		return "struct " + t.name
	}
	return "<unknown>"
}

// Common arithmetic conversion: the result type of a binary arithmetic
// operation between types a and b.
func Common(a, b *Type) *Type {
	a, b = a.Decay(), b.Decay()
	if a.IsPointer() {
		return a
	}
	if b.IsPointer() {
		return b
	}
	if a.IsFloat() || b.IsFloat() {
		return FloatType
	}
	return IntType
}
