package signature

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodecRoundTripSparse(t *testing.T) {
	c := Codec{Length: 256}
	s := FromItems(NewDirectMapper(256), []int{0, 17, 64, 128, 255})
	buf := c.Append(nil, s)
	if buf[0] != tagSparse {
		t.Fatalf("expected sparse tag, got 0x%02x", buf[0])
	}
	got, n, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if !got.Equal(s.Bitset) {
		t.Errorf("round trip mismatch: %s vs %s", got, s)
	}
}

func TestCodecRoundTripDense(t *testing.T) {
	c := Codec{Length: 64}
	s := New(64)
	for i := 0; i < 64; i += 2 {
		s.Set(i)
	}
	buf := c.Append(nil, s)
	if buf[0] != tagDense {
		t.Fatalf("expected dense tag for a half-full signature, got 0x%02x", buf[0])
	}
	got, n, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || !got.Equal(s.Bitset) {
		t.Error("dense round trip mismatch")
	}
}

func TestCodecPaperSizeClaim(t *testing.T) {
	// The paper: a 256-bit signature with 10 ones occupies ~10+1 bytes
	// sparse vs 32+1 dense.
	c := Codec{Length: 256}
	s := FromItems(NewDirectMapper(256), []int{3, 30, 60, 90, 120, 127, 150, 180, 210, 240})
	size := c.EncodedSize(s)
	if size > 14 { // flag + count + 10 deltas (some gaps <128 → 1 byte each)
		t.Errorf("sparse size = %d, want ≈11-14", size)
	}
	if c.MaxEncodedSize() != 33 {
		t.Errorf("MaxEncodedSize = %d, want 33", c.MaxEncodedSize())
	}
}

func TestCodecForceDense(t *testing.T) {
	c := Codec{Length: 256, ForceDense: true}
	s := FromItems(NewDirectMapper(256), []int{5})
	buf := c.Append(nil, s)
	if buf[0] != tagDense {
		t.Fatal("ForceDense did not force dense encoding")
	}
	if c.EncodedSize(s) != c.MaxEncodedSize() {
		t.Error("ForceDense EncodedSize should equal MaxEncodedSize")
	}
}

func TestCodecEmptyAndFull(t *testing.T) {
	c := Codec{Length: 100}
	empty := New(100)
	full := New(100)
	for i := 0; i < 100; i++ {
		full.Set(i)
	}
	for _, s := range []Signature{empty, full} {
		buf := c.Append(nil, s)
		got, n, err := c.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) || !got.Equal(s.Bitset) {
			t.Errorf("round trip failed for area=%d", s.Area())
		}
	}
}

func TestCodecEncodedSizeMatchesAppend(t *testing.T) {
	c := Codec{Length: 525}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		s := randSig(r, 525, r.Float64()*0.8)
		if got, want := c.EncodedSize(s), len(c.Append(nil, s)); got != want {
			t.Fatalf("EncodedSize = %d, Append produced %d (area %d)", got, want, s.Area())
		}
	}
}

func TestCodecDecodeErrors(t *testing.T) {
	c := Codec{Length: 64}
	cases := map[string][]byte{
		"empty":            {},
		"bad tag":          {0x7f},
		"dense truncated":  {tagDense, 1, 2},
		"sparse truncated": {tagSparse, 5, 1, 1},
		"sparse count too big": append([]byte{tagSparse}, // count 200 > 64
			0xc8, 0x01),
		"sparse position out of range": {tagSparse, 1, 0xc8, 0x01}, // delta 200
	}
	for name, buf := range cases {
		if _, _, err := c.Decode(buf); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCodecDecodeRejectsOverflowingDelta(t *testing.T) {
	// Found by fuzzing: a sparse delta large enough to overflow the int
	// accumulator slipped past the range check and panicked. The decoder
	// must reject it cleanly.
	c := Codec{Length: 256}
	raw := []byte("\x010\x84\xab\xab\xab\xab\xab\xab\xab\xab\x01")
	if _, _, err := c.Decode(raw); err == nil {
		t.Fatal("overflowing sparse delta accepted")
	}
}

func TestCodecAppendWrongLengthPanics(t *testing.T) {
	c := Codec{Length: 64}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong signature length")
		}
	}()
	c.Append(nil, New(65))
}

func TestCodecConcatenatedStream(t *testing.T) {
	// Several signatures encoded back-to-back decode in sequence — the way
	// a tree node page stores its entries.
	c := Codec{Length: 128}
	r := rand.New(rand.NewSource(4))
	var sigs []Signature
	var buf []byte
	for i := 0; i < 20; i++ {
		s := randSig(r, 128, r.Float64()*0.6)
		sigs = append(sigs, s)
		buf = c.Append(buf, s)
	}
	pos := 0
	for i, want := range sigs {
		got, n, err := c.Decode(buf[pos:])
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !got.Equal(want.Bitset) {
			t.Fatalf("entry %d mismatch", i)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Errorf("stream not fully consumed: %d of %d", pos, len(buf))
	}
}

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(700)
		c := Codec{Length: n}
		s := randSig(r, n, r.Float64())
		buf := c.Append(nil, s)
		if len(buf) > c.MaxEncodedSize() {
			return false
		}
		got, used, err := c.Decode(buf)
		return err == nil && used == len(buf) && got.Equal(s.Bitset)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCodecAppendSparse(b *testing.B) {
	c := Codec{Length: 512}
	s := FromItems(NewDirectMapper(512), []int{1, 50, 100, 200, 300, 400, 500})
	buf := make([]byte, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.Append(buf[:0], s)
	}
}

// questLikeSig returns a length-1000 signature with 10 items spread like a
// Quest T10 transaction over a 1000-item universe: sorted random
// positions whose gaps (about 100 on average) need 1- and 2-byte varints.
func questLikeSig() Signature {
	rng := rand.New(rand.NewSource(1))
	return FromItems(NewDirectMapper(1000), rng.Perm(1000)[:10])
}

// BenchmarkCodecDecodeSparse measures the node-loading decode of one
// sparse Quest-like signature into a preallocated signature.
func BenchmarkCodecDecodeSparse(b *testing.B) {
	c := Codec{Length: 1000}
	buf := c.Append(nil, questLikeSig())
	if buf[0] != tagSparse {
		b.Fatal("signature did not encode sparse")
	}
	s := New(c.Length)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeInto(buf, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecodeDense is BenchmarkCodecDecodeSparse for the raw
// bitmap form (uncompressed trees).
func BenchmarkCodecDecodeDense(b *testing.B) {
	c := Codec{Length: 1000, ForceDense: true}
	buf := c.Append(nil, questLikeSig())
	s := New(c.Length)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeInto(buf, s); err != nil {
			b.Fatal(err)
		}
	}
}
