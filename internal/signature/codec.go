package signature

import (
	"encoding/binary"
	"fmt"
)

// Codec implements the compression scheme of Section 3.2. Sparse signatures
// (few set bits) are stored as a flag byte followed by the list of set-bit
// positions; dense signatures are stored as the raw bitmap. The encoder
// picks whichever representation is smaller per signature, so a page holds
// more entries when the data are sparse — exactly the effect the paper is
// after. The flag byte plays the role described in the paper: it indicates
// the representation and, for the sparse form, is followed by the number of
// 1s and their positions.
//
// Positions are delta-encoded as unsigned varints, which generalizes the
// paper's one-byte positions (valid only for 256-bit signatures) to
// arbitrary signature lengths while staying at one byte per position for
// signatures up to 128 bits of gap.
type Codec struct {
	// Length is the signature bit length all encoded signatures must have.
	Length int
	// ForceDense disables compression; every signature is stored as a raw
	// bitmap. The paper's Table 1 experiment uses uncompressed trees.
	ForceDense bool
}

const (
	tagDense  = 0x00
	tagSparse = 0x01
)

// denseSize is the byte size of the raw-bitmap representation (tag + bytes).
func (c Codec) denseSize() int { return 1 + (c.Length+7)/8 }

// MaxEncodedSize returns the worst-case encoded size of any signature,
// which is the dense representation (the encoder never emits a sparse form
// larger than the dense one).
func (c Codec) MaxEncodedSize() int { return c.denseSize() }

// EncodedSize returns the exact number of bytes Append would emit for s.
func (c Codec) EncodedSize(s Signature) int {
	if c.ForceDense {
		return c.denseSize()
	}
	sp := c.sparseSize(s)
	if d := c.denseSize(); sp > d {
		return d
	}
	return sp
}

func (c Codec) sparseSize(s Signature) int {
	n := 1 // tag
	count := 0
	prev := 0
	s.ForEach(func(i int) {
		delta := i - prev
		prev = i
		n += uvarintLen(uint64(delta))
		count++
	})
	n += uvarintLen(uint64(count))
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Append encodes s and appends it to dst, returning the extended slice.
// It panics if s has the wrong length, since that is always a programming
// error in the tree layer.
func (c Codec) Append(dst []byte, s Signature) []byte {
	if s.Len() != c.Length {
		panic(fmt.Sprintf("signature: codec length %d, signature length %d", c.Length, s.Len()))
	}
	if !c.ForceDense && c.sparseSize(s) <= c.denseSize() {
		return c.appendSparse(dst, s)
	}
	return c.appendDense(dst, s)
}

func (c Codec) appendDense(dst []byte, s Signature) []byte {
	dst = append(dst, tagDense)
	nb := (c.Length + 7) / 8
	var tmp [8]byte
	for _, w := range s.Words() {
		binary.LittleEndian.PutUint64(tmp[:], w)
		take := 8
		if nb < take {
			take = nb
		}
		dst = append(dst, tmp[:take]...)
		nb -= take
	}
	return dst
}

func (c Codec) appendSparse(dst []byte, s Signature) []byte {
	dst = append(dst, tagSparse)
	dst = binary.AppendUvarint(dst, uint64(s.Count()))
	prev := 0
	s.ForEach(func(i int) {
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		prev = i
	})
	return dst
}

// Decode reads one encoded signature from buf, returning it and the number
// of bytes consumed.
func (c Codec) Decode(buf []byte) (Signature, int, error) {
	s := New(c.Length)
	used, err := c.DecodeInto(buf, s)
	if err != nil {
		return Signature{}, 0, err
	}
	return s, used, nil
}

// DecodeInto reads one encoded signature from buf into the preallocated
// signature s (which must have length c.Length), returning the number of
// bytes consumed. It performs no allocation: the dense form is copied
// straight into s's backing words a word at a time, and the sparse form
// ORs each position straight into them. This is the hot decode path —
// node loading decodes every entry into one contiguous slab of views — so
// the sparse loop reads the 1- and 2-byte varint forms inline (every
// position gap below 16384 bits) and leaves binary.Uvarint to the longer
// forms and to truncated input. The accepted inputs, consumed lengths and
// error verdicts are exactly those of a plain binary.Uvarint + Set loop.
func (c Codec) DecodeInto(buf []byte, s Signature) (int, error) {
	if s.Len() != c.Length {
		return 0, fmt.Errorf("signature: decode into length %d, codec length %d", s.Len(), c.Length)
	}
	if len(buf) == 0 {
		return 0, fmt.Errorf("signature: decode on empty buffer")
	}
	switch buf[0] {
	case tagDense:
		nb := (c.Length + 7) / 8
		if len(buf) < 1+nb {
			return 0, fmt.Errorf("signature: dense form truncated: have %d bytes, need %d", len(buf)-1, nb)
		}
		s.SetBytes(buf[1 : 1+nb])
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
		words := s.Words()
		clear(words)
		length := uint64(c.Length)
		cur := uint64(0)
		for i := uint64(0); i < count; i++ {
			var delta uint64
			switch {
			case pos < len(buf) && buf[pos] < 0x80:
				delta = uint64(buf[pos])
				pos++
			case pos+1 < len(buf) && buf[pos+1] < 0x80:
				delta = uint64(buf[pos]&0x7f) | uint64(buf[pos+1])<<7
				pos += 2
			default:
				d, n := binary.Uvarint(buf[pos:])
				if n <= 0 {
					return 0, fmt.Errorf("signature: truncated sparse position %d", i)
				}
				delta = d
				pos += n
			}
			// Check the delta before adding: a huge value could overflow
			// the accumulator and bypass the range check below.
			if delta > length {
				return 0, fmt.Errorf("signature: sparse delta %d out of range", delta)
			}
			cur += delta
			if cur >= length {
				return 0, fmt.Errorf("signature: sparse position %d out of range", cur)
			}
			words[cur>>6] |= 1 << (cur & 63)
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("signature: unknown encoding tag 0x%02x", buf[0])
	}
}
