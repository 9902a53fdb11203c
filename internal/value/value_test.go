package value

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "NULL", String: "STRING", Int: "INT", Float: "FLOAT", Bool: "BOOL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"string", String}, {"CHAR", String}, {"int", Int}, {"INTEGER", Int},
		{"FLOAT", Float}, {"real", Float}, {"DECIMAL", Float}, {"bool", Bool}, {"BOOLEAN", Bool},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != Null {
		t.Errorf("zero Value should be null, got kind %v", v.Kind())
	}
	if v.String() != "<null>" {
		t.Errorf("null String() = %q", v.String())
	}
}

func TestAccessors(t *testing.T) {
	if Str("x").AsString() != "x" {
		t.Error("AsString")
	}
	if Of(7).AsInt() != 7 {
		t.Error("AsInt on Int")
	}
	if F(2.5).AsInt() != 2 {
		t.Error("AsInt truncates Float")
	}
	if B(true).AsInt() != 1 || B(false).AsInt() != 0 {
		t.Error("AsInt on Bool")
	}
	if Of(7).AsFloat() != 7.0 {
		t.Error("AsFloat on Int")
	}
	if F(2.5).AsFloat() != 2.5 {
		t.Error("AsFloat on Float")
	}
	if !B(true).AsBool() || B(false).AsBool() || Of(1).AsBool() {
		t.Error("AsBool")
	}
}

func TestStringRendering(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Str("hi"), "hi"}, {Of(-4), "-4"}, {F(1.5), "1.5"},
		{B(true), "TRUE"}, {B(false), "FALSE"}, {NullValue(), "<null>"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestLiteral(t *testing.T) {
	if got := Str("o'hara").Literal(); got != "'o''hara'" {
		t.Errorf("string literal = %q", got)
	}
	if got := Of(3).Literal(); got != "3" {
		t.Errorf("int literal = %q", got)
	}
	// A Float literal keeps its kind and never takes an exponent the
	// lexers cannot read; String keeps the short PRINT form.
	for _, tc := range []struct {
		f         float64
		lit, text string
	}{
		{7, "7.0", "7"}, {1e6, "1000000.0", "1e+06"}, {1e-5, "0.00001", "1e-05"},
		{3.5, "3.5", "3.5"}, {-2, "-2.0", "-2"},
	} {
		if got := F(tc.f).Literal(); got != tc.lit {
			t.Errorf("F(%v).Literal() = %q, want %q", tc.f, got, tc.lit)
		}
		if got := F(tc.f).String(); got != tc.text {
			t.Errorf("F(%v).String() = %q, want %q", tc.f, got, tc.text)
		}
	}
}

func TestCompareNumericCross(t *testing.T) {
	c, ok := Of(3).Compare(F(3.0))
	if !ok || c != 0 {
		t.Errorf("Int(3) vs Float(3.0): %d, %v", c, ok)
	}
	c, ok = Of(3).Compare(F(3.5))
	if !ok || c != -1 {
		t.Errorf("Int(3) vs Float(3.5): %d, %v", c, ok)
	}
	c, ok = F(4.5).Compare(Of(4))
	if !ok || c != 1 {
		t.Errorf("Float(4.5) vs Int(4): %d, %v", c, ok)
	}
}

func TestCompareNullOrdering(t *testing.T) {
	if c, ok := NullValue().Compare(NullValue()); !ok || c != 0 {
		t.Error("null vs null should be equal")
	}
	if c, ok := NullValue().Compare(Of(0)); !ok || c != -1 {
		t.Error("null should sort below values")
	}
	if c, ok := Of(0).Compare(NullValue()); !ok || c != 1 {
		t.Error("values should sort above null")
	}
}

func TestCompareIncomparable(t *testing.T) {
	if _, ok := Str("a").Compare(Of(1)); ok {
		t.Error("string vs int should be incomparable")
	}
	if _, ok := B(true).Compare(Str("TRUE")); ok {
		t.Error("bool vs string should be incomparable")
	}
}

func TestCompareBool(t *testing.T) {
	if c, _ := B(false).Compare(B(true)); c != -1 {
		t.Error("false < true")
	}
	if c, _ := B(true).Compare(B(true)); c != 0 {
		t.Error("true == true")
	}
	if c, _ := B(true).Compare(B(false)); c != 1 {
		t.Error("true > false")
	}
}

func TestKeyRespectsEqual(t *testing.T) {
	if Of(3).Key() != F(3.0).Key() {
		t.Error("Int(3) and Float(3.0) must share a key")
	}
	if Of(3).Key() == F(3.5).Key() {
		t.Error("distinct numerics must not share a key")
	}
	if Str("3").Key() == Of(3).Key() {
		t.Error("string '3' must not collide with int 3")
	}
	if NullValue().Key() == Str("").Key() {
		t.Error("null must not collide with empty string")
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		lit  string
		want Value
	}{
		{String, "abc", Str("abc")},
		{Int, " 42 ", Of(42)},
		{Float, "2.5", F(2.5)},
		{Bool, "true", B(true)},
		{Bool, "F", B(false)},
		{Null, "whatever", NullValue()},
	} {
		got, err := Parse(tc.kind, tc.lit)
		if err != nil || !got.Equal(tc.want) {
			t.Errorf("Parse(%v, %q) = %v, %v; want %v", tc.kind, tc.lit, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		kind Kind
		lit  string
	}{{Int, "x"}, {Float, "y"}, {Bool, "maybe"}} {
		if _, err := Parse(tc.kind, tc.lit); err == nil {
			t.Errorf("Parse(%v, %q) should fail", tc.kind, tc.lit)
		}
	}
}

// Property: Compare is antisymmetric and Equal agrees with Compare==0
// across randomly generated int/float pairs.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Of(a), Of(b)
		c1, ok1 := va.Compare(vb)
		c2, ok2 := vb.Compare(va)
		if !ok1 || !ok2 || c1 != -c2 {
			return false
		}
		return (c1 == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key() agrees with Equal on random numeric values.
func TestKeyEqualConsistencyProperty(t *testing.T) {
	f := func(a int64, b float64) bool {
		va, vb := Of(a), F(b)
		return va.Equal(vb) == (va.Key() == vb.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: string values round-trip through Parse.
func TestStringParseRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		v, err := Parse(String, s)
		return err == nil && v.AsString() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
