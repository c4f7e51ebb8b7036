// Package bitmask provides dense bit sets used to track the visited status
// of delegate vertices. A delegate occupies a single bit (paper §IV-A), and
// delegate masks are the unit of global reduction in the communication model
// (paper §V-A). Masks support both plain and atomic mutation: visit kernels
// running on concurrent simulated GPU lanes use the atomic forms, while the
// reduction paths use whole-word operations.
package bitmask

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Mask is a fixed-capacity dense bit set. The zero value is unusable; create
// masks with New. The underlying word slice is exported through Words so the
// communication layer can ship masks without copying bit by bit.
type Mask struct {
	n     int64 // number of addressable bits
	words []uint64
}

// New returns a mask able to hold n bits, all cleared.
func New(n int64) *Mask {
	if n < 0 {
		panic(fmt.Sprintf("bitmask: negative size %d", n))
	}
	return &Mask{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromWords wraps an existing word slice as a mask of n bits. The slice is
// used directly (not copied); it must contain at least ceil(n/64) words.
func FromWords(n int64, words []uint64) *Mask {
	need := int((n + wordBits - 1) / wordBits)
	if len(words) < need {
		panic(fmt.Sprintf("bitmask: FromWords needs %d words, got %d", need, len(words)))
	}
	return &Mask{n: n, words: words[:need]}
}

// Len returns the number of addressable bits.
func (m *Mask) Len() int64 { return m.n }

// Words returns the backing word slice. Mutating it mutates the mask.
func (m *Mask) Words() []uint64 { return m.words }

// ByteSize returns the wire size of the mask in bytes (8 per word). This is
// the quantity the paper's communication model charges (d/8 bytes per mask).
func (m *Mask) ByteSize() int64 { return int64(len(m.words)) * 8 }

// Set sets bit i.
func (m *Mask) Set(i int64) {
	m.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (m *Mask) Clear(i int64) {
	m.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (m *Mask) Get(i int64) bool {
	return m.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// SetAtomic sets bit i with a lock-free read-modify-write and reports whether
// this call changed the bit (i.e. it was previously clear). Visit kernels use
// the return value to enqueue each newly visited delegate exactly once.
func (m *Mask) SetAtomic(i int64) bool {
	addr := &m.words[i/wordBits]
	bit := uint64(1) << uint(i%wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|bit) {
			return true
		}
	}
}

// GetAtomic reports bit i using an atomic load.
func (m *Mask) GetAtomic(i int64) bool {
	return atomic.LoadUint64(&m.words[i/wordBits])&(1<<uint(i%wordBits)) != 0
}

// Reset clears all bits.
func (m *Mask) Reset() {
	for i := range m.words {
		m.words[i] = 0
	}
}

// Fill sets all n bits (trailing bits of the last word stay clear).
func (m *Mask) Fill() {
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	m.trim()
}

// trim zeroes the unused high bits of the final word so Count and Equal see a
// canonical representation.
func (m *Mask) trim() {
	if rem := m.n % wordBits; rem != 0 && len(m.words) > 0 {
		m.words[len(m.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits.
func (m *Mask) Count() int64 {
	var c int64
	for _, w := range m.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// Any reports whether any bit is set.
func (m *Mask) Any() bool {
	for _, w := range m.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or sets m |= other. Both masks must have identical length.
func (m *Mask) Or(other *Mask) {
	m.mustMatch(other)
	for i, w := range other.words {
		m.words[i] |= w
	}
}

// OrAtomic performs m |= other with atomic word updates, safe against
// concurrent SetAtomic calls on m.
func (m *Mask) OrAtomic(other *Mask) {
	m.mustMatch(other)
	for i, w := range other.words {
		if w != 0 {
			atomic.OrUint64(&m.words[i], w)
		}
	}
}

// AndNot sets m &^= other (clears every bit that is set in other).
func (m *Mask) AndNot(other *Mask) {
	m.mustMatch(other)
	for i, w := range other.words {
		m.words[i] &^= w
	}
}

// CopyFrom overwrites m with other's bits.
func (m *Mask) CopyFrom(other *Mask) {
	m.mustMatch(other)
	copy(m.words, other.words)
}

// Clone returns an independent copy.
func (m *Mask) Clone() *Mask {
	c := New(m.n)
	copy(c.words, m.words)
	return c
}

// Equal reports whether two masks have the same length and bits.
func (m *Mask) Equal(other *Mask) bool {
	if m.n != other.n {
		return false
	}
	for i, w := range m.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Diff writes (other &^ m) into dst — the bits newly set in other relative to
// m — and returns the number of such bits. dst may alias other but not m.
// The BFS engine uses Diff to extract the per-iteration delegate frontier
// from the globally reduced visited mask.
func (m *Mask) Diff(other, dst *Mask) int64 {
	m.mustMatch(other)
	m.mustMatch(dst)
	var c int64
	for i := range m.words {
		nw := other.words[i] &^ m.words[i]
		dst.words[i] = nw
		c += int64(bits.OnesCount64(nw))
	}
	return c
}

// ForEach calls fn for every set bit in ascending order.
func (m *Mask) ForEach(fn func(i int64)) {
	for wi, w := range m.words {
		base := int64(wi) * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + int64(tz))
			w &= w - 1
		}
	}
}

// AppendSetBits appends the indices of all set bits to dst and returns it.
func (m *Mask) AppendSetBits(dst []int64) []int64 {
	m.ForEach(func(i int64) { dst = append(dst, i) })
	return dst
}

func (m *Mask) mustMatch(other *Mask) {
	if m.n != other.n {
		panic(fmt.Sprintf("bitmask: length mismatch %d vs %d", m.n, other.n))
	}
}

// CountExcluding returns popcount(m &^ sub0 &^ sub1 ...) without
// materializing the intermediate mask — the backward-pull kernels size their
// candidate sets this way (unvisited ∩ source-mask).
func (m *Mask) CountExcluding(subs ...*Mask) int64 {
	var c int64
	for i, w := range m.words {
		for _, s := range subs {
			m.mustMatch(s)
			w &^= s.words[i]
		}
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// ReduceOr ORs all src masks word-wise into dst. It is the reference
// implementation of the delegate mask reduction (paper §V-A); the MPI layer
// performs the same fold across ranks.
func ReduceOr(dst *Mask, srcs ...*Mask) {
	for _, s := range srcs {
		dst.Or(s)
	}
}
