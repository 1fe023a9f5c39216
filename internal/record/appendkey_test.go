package record

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomValue draws a value of type typ, biased towards the encodings' edge
// cases: extreme and negative ints, -0, NaN and the infinities, and strings
// holding zero bytes.
func randomValue(rng *rand.Rand, typ Type) Value {
	switch typ {
	case TypeInt:
		ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
		if rng.Intn(3) == 0 {
			return Int(ints[rng.Intn(len(ints))])
		}
		return Int(rng.Int63() - rng.Int63())
	case TypeFloat:
		floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), -math.MaxFloat64, math.SmallestNonzeroFloat64}
		if rng.Intn(3) == 0 {
			return Float(floats[rng.Intn(len(floats))])
		}
		return Float(rng.NormFloat64() * 1e6)
	default:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = []byte{0x00, 0x01, 0xff, 'a', 'z'}[rng.Intn(5)]
		}
		return String(string(b))
	}
}

// TestAppendKeyMatchesEncodeKey checks AppendKey against EncodeKey of the
// decoded values on random schemas, rows and column subsets, in any order
// (out of column order included), appended after an existing prefix.
func TestAppendKeyMatchesEncodeKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		cols := make([]Column, 1+rng.Intn(8))
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: Type(1 + rng.Intn(3))}
		}
		s := MustSchema(cols...)
		row := make(Row, len(cols))
		for i, c := range cols {
			row[i] = randomValue(rng, c.Type)
		}
		data, err := s.Encode(row)
		if err != nil {
			t.Fatal(err)
		}
		pick := rng.Perm(len(cols))[:1+rng.Intn(len(cols))]
		vals := make([]Value, len(pick))
		for k, c := range pick {
			vals[k] = row[c]
		}
		prefix := []byte{0xab, 0x00}
		got, err := s.AppendKey(append([]byte(nil), prefix...), data, pick)
		if err != nil {
			t.Fatalf("AppendKey(%#v, cols %v): %v", row, pick, err)
		}
		if want := string(prefix) + EncodeKey(vals...); string(got) != want {
			t.Fatalf("AppendKey(%#v, cols %v) = %x, want %x", row, pick, got, want)
		}
	}
}

// TestAppendKeyRejectsAsDecode: every corruption TestDecodeRejectsCorruptData
// makes fails AppendKey with Decode's own error, and leaves dst as it was.
func TestAppendKeyRejectsAsDecode(t *testing.T) {
	s := testSchema(t)
	data, _ := s.Encode(Row{Int(1), Float(2), String("abc")})
	bad := [][]byte{append(append([]byte{}, data...), 0x01), append([]byte{0x7f}, data[1:]...)}
	for cut := 0; cut < len(data); cut++ {
		bad = append(bad, data[:cut])
	}
	for _, b := range bad {
		_, derr := s.Decode(b)
		got, aerr := s.AppendKey([]byte("k"), b, []int{2, 0})
		if derr == nil || aerr == nil || aerr.Error() != derr.Error() || string(got) != "k" {
			t.Fatalf("%x: AppendKey = %q, %v; Decode error %v", b, got, aerr, derr)
		}
	}
}

// TestAppendKeyAllocs: building a key into a caller's stack buffer
// allocates nothing, even for a key out of column order.
func TestAppendKeyAllocs(t *testing.T) {
	s := testSchema(t)
	data, _ := s.Encode(Row{Int(-17), Float(3.25), String("hello\x00world")})
	cols := []int{2, 0}
	var buf [64]byte
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.AppendKey(buf[:0], data, cols); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendKey into a 64-byte stack buffer: %v allocs/op, want 0", allocs)
	}
}

// FuzzAppendKey: on arbitrary bytes AppendKey fails exactly when Decode
// does, with the same error, and otherwise equals EncodeKey of the decoded
// columns.
func FuzzAppendKey(f *testing.F) {
	s := MustSchema(
		Column{Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeString},
		Column{Name: "c", Type: TypeFloat},
		Column{Name: "d", Type: TypeString},
	)
	good, _ := s.Encode(Row{Int(-5), String("x\x00y"), Float(math.Inf(-1)), String("")})
	f.Add(good, uint8(0))
	f.Add(good[:len(good)-1], uint8(3))
	f.Add(append(append([]byte{}, good...), 0), uint8(1))
	// A string length of 2^64-1: the bounds check must not overflow.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(2))
	orders := [][]int{{0}, {1, 0}, {3, 1}, {2, 3, 0, 1}, {3, 2, 1, 0, 2}}
	f.Fuzz(func(t *testing.T, data []byte, order uint8) {
		cols := orders[int(order)%len(orders)]
		row, derr := s.Decode(data)
		key, aerr := s.AppendKey(nil, data, cols)
		if (derr == nil) != (aerr == nil) || (derr != nil && derr.Error() != aerr.Error()) {
			t.Fatalf("Decode error %v, AppendKey error %v", derr, aerr)
		}
		if derr != nil {
			return
		}
		vals := make([]Value, len(cols))
		for k, c := range cols {
			vals[k] = row[c]
		}
		if want := EncodeKey(vals...); string(key) != want {
			t.Fatalf("AppendKey = %x, EncodeKey = %x", key, want)
		}
	})
}
