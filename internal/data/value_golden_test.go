package data

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// goldenValues covers every kind and the payload edge cases of each:
// extreme ints, signed zero, NaN and both infinities, an inexact decimal,
// both bools, the empty and a non-empty string, and null.
var goldenValues = []Value{
	NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(0),
	NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(0.1),
	NewBool(true), NewBool(false),
	NewString(""), NewString("a \"quoted\" b"),
	NullValue,
}

func renderResult(v Value, err error) string {
	if err != nil {
		return "err(" + err.Error() + ")"
	}
	return v.Kind().String() + ":" + v.String()
}

// renderValueTable prints every exported Value method's result on every
// golden value and pair, one line each.
func renderValueTable() string {
	var b strings.Builder
	for _, v := range goldenValues {
		f, fok := v.AsFloat()
		abs, absErr := Abs(v)
		p, perr := ParseLiteral(v.String())
		fmt.Fprintf(&b, "%s kind=%s null=%t truthy=%t int=%d float=%v bool=%t str=%q asfloat=%v/%t abs=%s parse=%s roundequal=%t\n",
			v, v.Kind(), v.IsNull(), v.Truthy(), v.Int(), v.Float(), v.Bool(), v.Str(), f, fok,
			renderResult(abs, absErr), renderResult(p, perr), perr == nil && p.Equal(v))
	}
	for _, v := range goldenValues {
		for _, w := range goldenValues {
			c, cok := v.Compare(w)
			fmt.Fprintf(&b, "%s ? %s: eq=%t cmp=%d/%t", v, w, v.Equal(w), c, cok)
			for _, op := range []byte("+-*/") {
				r, err := Arith(op, v, w)
				fmt.Fprintf(&b, " %c=%s", op, renderResult(r, err))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestValueGoldenTable pins the observable behaviour of Value's methods
// against a table recorded before Value's payload was packed into one
// word, so a representation change cannot alter a result.
func TestValueGoldenTable(t *testing.T) {
	want, err := os.ReadFile("testdata/value_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := renderValueTable()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("golden line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// TestValueSize guards the packed layout: kind, one 64-bit payload word
// and the string header.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}
