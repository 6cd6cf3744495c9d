package bitset

import (
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if s.Contains(5) {
		t.Fatal("zero value contains 5")
	}
	s.Add(5)
	if !s.Contains(5) {
		t.Fatal("Add on zero value failed")
	}
}

// TestAddContains adds values across word boundaries and past the
// capacity New sized the set for.
func TestAddContains(t *testing.T) {
	s := New(10)
	added := []int{0, 1, 63, 64, 65, 127, 128, 1000}
	for _, v := range added {
		if s.Contains(v) {
			t.Fatalf("fresh set contains %d", v)
		}
		s.Add(v)
		if !s.Contains(v) {
			t.Fatalf("set missing %d after Add", v)
		}
	}
	for v := 0; v <= 1100; v++ {
		want := false
		for _, a := range added {
			want = want || a == v
		}
		if s.Contains(v) != want {
			t.Fatalf("Contains(%d) = %v, want %v", v, !want, want)
		}
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	New(4).Add(-1)
}

func TestContainsNegative(t *testing.T) {
	s := New(4)
	if s.Contains(-1) {
		t.Fatal("Contains(-1) = true")
	}
}

func TestUnion(t *testing.T) {
	a, b := New(0), New(0)
	for _, v := range []int{1, 2, 3} {
		a.Add(v)
	}
	for _, v := range []int{3, 4, 500} {
		b.Add(v)
	}
	a.Union(b)
	want := map[int]bool{1: true, 2: true, 3: true, 4: true, 500: true}
	for v := 0; v < 600; v++ {
		if a.Contains(v) != want[v] {
			t.Fatalf("union Contains(%d) = %v, want %v", v, !want[v], want[v])
		}
	}
	if b.Contains(1) {
		t.Fatal("Union mutated its argument")
	}
}

// Property: a Set behaves like a map[int]bool under a random sequence of
// adds and membership queries.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		s := &Set{}
		m := map[int]bool{}
		for _, op := range ops {
			v := int(op % 300)
			if op%2 == 0 {
				s.Add(v)
				m[v] = true
			} else if s.Contains(v) != m[v] {
				return false
			}
		}
		for v := 0; v < 300; v++ {
			if s.Contains(v) != m[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a union holds exactly the elements of either operand.
func TestQuickUnion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := &Set{}, &Set{}
		for _, x := range xs {
			a.Add(int(x % 500))
		}
		for _, y := range ys {
			b.Add(int(y % 500))
		}
		u := &Set{}
		u.Union(a)
		u.Union(b)
		for v := 0; v < 500; v++ {
			if u.Contains(v) != (a.Contains(v) || b.Contains(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
