package bitset

import (
	"math/rand"
	"testing"
)

func TestView(t *testing.T) {
	words := []uint64{0, 0}
	v := View(words, 100)
	v.Set(3)
	v.Set(99)
	if words[0] != 1<<3 || words[1] != 1<<(99-64) {
		t.Fatal("view writes did not land in the backing slice")
	}
	if v.Count() != 2 || !v.Test(99) {
		t.Fatal("view reads wrong")
	}
	// Views interoperate with heap bitsets of the same length.
	o := New(100)
	o.Set(3)
	if v.AndNotCount(o) != 1 {
		t.Fatal("view AndNotCount wrong")
	}
	for _, bad := range []struct {
		words int
		n     int
	}{{1, 100}, {3, 100}, {2, 129}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("View(%d words, %d bits) did not panic", bad.words, bad.n)
				}
			}()
			View(make([]uint64, bad.words), bad.n)
		}()
	}
}

func TestSetBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 7, 8, 63, 64, 65, 127, 128, 200, 500} {
		src := make([]byte, (n+7)/8)
		rng.Read(src)
		b := New(n)
		b.Set(0) // pre-set bits must be overwritten, not OR-ed
		b.SetBytes(src)
		for i := 0; i < n; i++ {
			want := src[i/8]&(1<<uint(i%8)) != 0
			if b.Test(i) != want {
				t.Fatalf("n=%d bit %d: got %v want %v", n, i, b.Test(i), want)
			}
		}
		// Tail bits beyond n must be clamped so counting ops stay exact.
		count := 0
		for i := 0; i < n; i++ {
			if src[i/8]&(1<<uint(i%8)) != 0 {
				count++
			}
		}
		if b.Count() != count {
			t.Fatalf("n=%d: Count=%d want %d (tail not clamped?)", n, b.Count(), count)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetBytes with wrong size did not panic")
		}
	}()
	New(64).SetBytes(make([]byte, 7))
}
