// Package bitset implements fixed-length bitmaps backed by 64-bit words.
//
// It is the kernel underneath signatures: every signature-tree node entry,
// SG-table vertical signature, and query bitmap is a Bitset. The package is
// deliberately minimal and allocation-conscious: all binary operations have
// in-place variants, and the counting operations (popcounts of combinations
// of two bitmaps) are implemented without materializing intermediates,
// because they sit on the innermost loop of every similarity query.
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a fixed-length bitmap. The zero value is an empty bitmap of
// length 0; use New to create one with a given number of bits. Bits beyond
// the logical length are kept zero by all operations (the "tail invariant"),
// which lets counting operations run over whole words without masking.
type Bitset struct {
	words []uint64
	n     int // logical number of bits
}

// New returns a zeroed bitmap with capacity for n bits.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Bitset{words: make([]uint64, wordsFor(n)), n: n}
}

// View returns a Bitset value backed by the caller's word slice, without
// copying. The slice must hold exactly wordsFor(n) words. The caller is
// responsible for the tail invariant until a mutating operation that clamps
// (SetWords, SetBytes, Not) runs; decoded views from the node codec always
// arrive clamped. Views let a node keep all its entry signatures in one
// contiguous slab.
func View(words []uint64, n int) Bitset {
	if n < 0 {
		panic("bitset: negative length")
	}
	if len(words) != wordsFor(n) {
		panic(fmt.Sprintf("bitset: view of %d words cannot hold %d bits", len(words), n))
	}
	return Bitset{words: words, n: n}
}

// FromPositions returns a bitmap of length n with the given bit positions set.
// Positions out of range cause a panic, matching Set.
func FromPositions(n int, positions []int) *Bitset {
	b := New(n)
	for _, p := range positions {
		b.Set(p)
	}
	return b
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// tailMask returns the mask of valid bits in the last word, or ^0 if the
// length is a multiple of the word size (or zero words).
func (b *Bitset) tailMask() uint64 {
	r := b.n % wordBits
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(r)) - 1
}

// clampTail zeroes any bits beyond the logical length. Operations that can
// only clear bits don't need it; it exists for Not and deserialization.
func (b *Bitset) clampTail() {
	if len(b.words) > 0 {
		b.words[len(b.words)-1] &= b.tailMask()
	}
}

// Len returns the number of bits the bitmap holds.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i to 1.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.n))
	}
}

// Reset clears every bit, keeping the length.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with the contents of src. The lengths must match.
func (b *Bitset) CopyFrom(src *Bitset) {
	b.mustMatch(src)
	copy(b.words, src.words)
}

// mustMatch panics on operand length mismatch. The message is a plain
// constant: a fmt.Sprintf here would push every counting method past the
// inlining budget, costing an extra call frame per kernel invocation.
func (b *Bitset) mustMatch(o *Bitset) {
	if b.n != o.n {
		panic("bitset: operand length mismatch")
	}
}

// Count returns the number of set bits (the signature "area").
func (b *Bitset) Count() int {
	return kernCount(b.words)
}

// IsZero reports whether no bit is set.
func (b *Bitset) IsZero() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and o have the same length and the same bits.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Or sets b to b | o in place.
func (b *Bitset) Or(o *Bitset) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// And sets b to b & o in place.
func (b *Bitset) And(o *Bitset) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// AndNot sets b to b &^ o in place.
func (b *Bitset) AndNot(o *Bitset) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

// Xor sets b to b ^ o in place.
func (b *Bitset) Xor(o *Bitset) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] ^= w
	}
}

// Not flips every bit in place (within the logical length).
func (b *Bitset) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.clampTail()
}

// Union returns a new bitmap b | o.
func Union(b, o *Bitset) *Bitset {
	r := b.Clone()
	r.Or(o)
	return r
}

// Intersection returns a new bitmap b & o.
func Intersection(b, o *Bitset) *Bitset {
	r := b.Clone()
	r.And(o)
	return r
}

// Contains reports whether every set bit of o is also set in b (o ⊆ b).
func (b *Bitset) Contains(o *Bitset) bool {
	b.mustMatch(o)
	for i, w := range o.words {
		if w&^b.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share at least one set bit.
func (b *Bitset) Intersects(o *Bitset) bool {
	b.mustMatch(o)
	for i, w := range o.words {
		if w&b.words[i] != 0 {
			return true
		}
	}
	return false
}

// AndCount returns |b & o| without allocating.
func (b *Bitset) AndCount(o *Bitset) int {
	b.mustMatch(o)
	return kernAndCount(b.words, o.words)
}

// AndNotCount returns |b &^ o| (bits set in b but not in o) without allocating.
func (b *Bitset) AndNotCount(o *Bitset) int {
	b.mustMatch(o)
	return kernAndNotCount(b.words, o.words)
}

// OrCount returns |b | o| without allocating.
func (b *Bitset) OrCount(o *Bitset) int {
	b.mustMatch(o)
	return kernOrCount(b.words, o.words)
}

// HammingDistance returns |b XOR o|: the number of positions where the two
// bitmaps differ. For direct-mapped set signatures this is exactly the size
// of the symmetric difference of the underlying sets.
func (b *Bitset) HammingDistance(o *Bitset) int {
	b.mustMatch(o)
	return kernXorCount(b.words, o.words)
}

// EnlargementCount returns |o &^ b|: how many new bits b would gain if o
// were OR-ed into it. This is the "area enlargement" of the insertion
// heuristics.
func (b *Bitset) EnlargementCount(o *Bitset) int {
	return o.AndNotCount(b)
}

// NextSet returns the position of the first set bit at or after i, or -1 if
// there is none. Use it to iterate: for i := b.NextSet(0); i >= 0; i = b.NextSet(i+1).
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// Positions returns the sorted positions of all set bits.
func (b *Bitset) Positions() []int {
	out := make([]int, 0, 16)
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Words exposes the backing words (read-only by convention); used by the
// signature codec for dense serialization.
func (b *Bitset) Words() []uint64 { return b.words }

// SetWords overwrites the backing words from raw data, clamping the tail.
// The slice must contain exactly wordsFor(Len()) words.
func (b *Bitset) SetWords(w []uint64) {
	if len(w) != len(b.words) {
		panic("bitset: SetWords length mismatch")
	}
	copy(b.words, w)
	b.clampTail()
}

// SetBytes overwrites the bitmap from its little-endian byte serialization
// (bit i of the bitmap is bit i%8 of byte i/8) and clamps the tail. src
// must hold exactly (Len()+7)/8 bytes — the dense codec representation.
// Unlike SetWords it needs no intermediate word slice, so the codec can
// decode straight from a page into a preallocated bitmap.
func (b *Bitset) SetBytes(src []byte) {
	if len(src) != (b.n+7)/8 {
		panic(fmt.Sprintf("bitset: SetBytes got %d bytes for %d bits", len(src), b.n))
	}
	full := len(src) / 8
	for wi := 0; wi < full; wi++ {
		b.words[wi] = binary.LittleEndian.Uint64(src[wi*8:])
	}
	if full < len(b.words) {
		var w uint64
		for j, x := range src[full*8:] {
			w |= uint64(x) << (8 * uint(j))
		}
		b.words[full] = w
	}
	b.clampTail()
}

// String renders the bitmap as a left-to-right bit string (bit 0 first),
// matching the figures in the paper (e.g. "100010").
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse builds a bitmap from a bit string as produced by String.
func Parse(s string) (*Bitset, error) {
	b := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			b.Set(i)
		case '0':
		default:
			return nil, fmt.Errorf("bitset: invalid character %q at %d", s[i], i)
		}
	}
	return b, nil
}
