package signature

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzCodecDecode feeds arbitrary bytes to the signature decoder: it must
// never panic and never mis-report the consumed length. Round-trips of
// successfully decoded signatures must be stable.
func FuzzCodecDecode(f *testing.F) {
	c := Codec{Length: 256}
	f.Add([]byte{})
	f.Add([]byte{tagDense})
	f.Add([]byte{tagSparse, 3, 1, 1, 1})
	f.Add(c.Append(nil, FromItems(NewDirectMapper(256), []int{0, 17, 255})))
	full := New(256)
	for i := 0; i < 256; i++ {
		full.Set(i)
	}
	f.Add(c.Append(nil, full))
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, n, err := c.Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if sig.Len() != 256 {
			t.Fatalf("decoded signature of length %d", sig.Len())
		}
		// Re-encode and decode again: must be identical.
		re := c.Append(nil, sig)
		sig2, _, err := c.Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sig2.Equal(sig.Bitset) {
			t.Fatal("round trip not stable")
		}
	})
}

// refDecodeInto is the plain decoder the fast DecodeInto must agree with:
// binary.Uvarint for every varint, Bitset.Set for every sparse position,
// and one bit at a time for the dense form. It keeps the error messages
// of DecodeInto so the differential checks compare them too.
func refDecodeInto(c Codec, buf []byte, s Signature) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("signature: decode on empty buffer")
	}
	switch buf[0] {
	case tagDense:
		nb := (c.Length + 7) / 8
		if len(buf) < 1+nb {
			return 0, fmt.Errorf("signature: dense form truncated: have %d bytes, need %d", len(buf)-1, nb)
		}
		s.Reset()
		for i := 0; i < c.Length; i++ {
			if buf[1+i/8]&(1<<(i%8)) != 0 {
				s.Set(i)
			}
		}
		return 1 + nb, nil
	case tagSparse:
		pos := 1
		count, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("signature: bad sparse count")
		}
		pos += n
		if count > uint64(c.Length) {
			return 0, fmt.Errorf("signature: sparse count %d exceeds length %d", count, c.Length)
		}
		s.Reset()
		cur := 0
		for i := uint64(0); i < count; i++ {
			delta, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return 0, fmt.Errorf("signature: truncated sparse position %d", i)
			}
			pos += n
			if delta > uint64(c.Length) {
				return 0, fmt.Errorf("signature: sparse delta %d out of range", delta)
			}
			cur += int(delta)
			if cur >= c.Length {
				return 0, fmt.Errorf("signature: sparse position %d out of range", cur)
			}
			s.Set(cur)
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("signature: unknown encoding tag 0x%02x", buf[0])
	}
}

// diffLengths are the codec lengths of the differential decode checks:
// the paper's 256-bit signatures, a Quest-scale universe, and one long
// enough that position gaps need 3-byte varints.
var diffLengths = []int{256, 1000, 20000}

// checkDecodeMatchesReference decodes data with DecodeInto and with
// refDecodeInto into signatures pre-filled with the same junk, and
// requires the same consumed length, the same error (or none) and the
// same bits — also after a failed decode, which leaves partial output.
func checkDecodeMatchesReference(t *testing.T, c Codec, data []byte) {
	t.Helper()
	got, want := New(c.Length), New(c.Length)
	for i := 0; i < c.Length; i += 7 {
		got.Set(i)
		want.Set(i)
	}
	gotN, gotErr := c.DecodeInto(data, got)
	wantN, wantErr := refDecodeInto(c, data, want)
	if gotN != wantN || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("length %d, input %x: DecodeInto = (%d, %v), reference = (%d, %v)",
			c.Length, data, gotN, gotErr, wantN, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("length %d, input %x: error %q, reference %q", c.Length, data, gotErr, wantErr)
	}
	if !got.Equal(want.Bitset) {
		t.Fatalf("length %d, input %x: decoded bits differ from the reference", c.Length, data)
	}
}

// FuzzDecodeIntoDifferential checks the fast DecodeInto against
// refDecodeInto on arbitrary bytes at each of diffLengths.
func FuzzDecodeIntoDifferential(f *testing.F) {
	for _, length := range diffLengths {
		c := Codec{Length: length}
		m := NewDirectMapper(length)
		sparse := c.Append(nil, FromItems(m, []int{0, 1, 127, 128, 255, length - 1}))
		f.Add(uint8(length%251), sparse)
		f.Add(uint8(length%251), sparse[:len(sparse)-1])
		f.Add(uint8(length%251), c.Append(nil, New(length)))
		f.Add(uint8(length%251), Codec{Length: length, ForceDense: true}.Append(nil, FromItems(m, []int{3, length - 1})))
	}
	// A 3-byte gap (16384) at length 20000, whole and cut inside the varint.
	long := Codec{Length: 20000}.Append(nil, FromItems(NewDirectMapper(20000), []int{5, 16389}))
	f.Add(uint8(20000%251), long)
	f.Add(uint8(20000%251), long[:len(long)-1])
	f.Add(uint8(0), []byte{tagSparse, 2, 0x80, 0x00, 0x81, 0x01}) // non-canonical varints
	f.Add(uint8(0), []byte{tagSparse, 1, 0x80})                   // truncated 2-byte varint
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		checkDecodeMatchesReference(t, Codec{Length: diffLengths[int(sel)%len(diffLengths)]}, data)
	})
}

// TestCodecDecodeMatchesReference is a deterministic sweep of the same
// differential check: random sparse and dense encodings at every
// diffLengths entry with gaps of every varint width, every prefix of each
// (the truncation paths), and random single-byte corruptions.
func TestCodecDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, length := range diffLengths {
		for _, dense := range []bool{false, true} {
			c := Codec{Length: length, ForceDense: dense}
			for trial := 0; trial < 40; trial++ {
				s := New(length)
				// Mostly Quest-like gaps, sometimes one long jump.
				for p := rng.Intn(64); p < length; p += 1 + rng.Intn(1+[]int{8, 200, length}[trial%3]) {
					s.Set(p)
				}
				buf := c.Append(nil, s)
				checkDecodeMatchesReference(t, c, buf)
				if len(buf) < 512 {
					for cut := 0; cut < len(buf); cut++ {
						checkDecodeMatchesReference(t, c, buf[:cut])
					}
				}
				for k := 0; k < 8; k++ {
					bad := append([]byte(nil), buf...)
					bad[rng.Intn(len(bad))] = byte(rng.Intn(256))
					checkDecodeMatchesReference(t, Codec{Length: length}, bad)
				}
			}
		}
	}
}
