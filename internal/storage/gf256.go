// Package storage implements the software side of the wind tunnel's
// availability story (§1, §3, §4.6 of the paper): customer data objects
// protected by n-way replication or Reed–Solomon erasure coding (the
// "XORing elephants" alternative the paper cites as [14]), distributed
// across cluster nodes by pluggable placement policies — Random and
// RoundRobin as in Figure 1, plus rack-aware and copyset variants — and
// judged available under a majority-quorum protocol.
//
// A Store is built once and can then be populated any number of times:
// Reset empties it, in place, to the state NewStore left it in — equal to
// a freshly built store — and the next AddObjects places, with whatever
// stream it is given, into the Objects and Locations the store already
// owns. Every handle from before the Reset (*Object, ObjectsOn slices) is
// dead. Policies place into storage the caller owns and keep their
// scratch in the View, so re-placing a population allocates nothing. A
// re-population of the same shape draws locations and nothing else: an
// object's ID, size and scheme are written over the old ones in place,
// and its Locations are placed again, through the policy's Place, with
// the draws a fresh store would take.
//
// The store's node index (ObjectsOn) is written far more often than it is
// read — every finished repair relocates a shard, a node's list is read
// when that node changes state — so Relocate only appends the object to
// its new node's list and marks the two nodes; a marked node's list is
// filtered, sorted by ID and de-duplicated at the next ObjectsOn of that
// node, and of no other.
package storage

import "encoding/binary"

// GF(2^8) arithmetic with the 0x11d primitive polynomial (the one used by
// storage Reed–Solomon implementations). Log/antilog tables are built at
// package init; all operations are table lookups. A full 256×256 product
// table is also built so the encode/reconstruct inner loops can multiply
// with a single unconditional lookup per byte: gfMulTable[c] is the
// 256-entry product table of the constant c, and bulk kernels walk it
// word-at-a-time (see mulAddTable).

const gfPoly = 0x11d

var (
	gfExp [512]byte // doubled to avoid mod-255 in Mul
	gfLog [256]byte

	// gfMulTable[a][b] = a·b over GF(2^8). 64 KiB, shared by every code
	// instance; row pointers are cached on each RSCode's matrices.
	gfMulTable [256][256]byte

	// gfNibbleTable[c] is c's 32-byte SIMD shuffle table: products of the
	// 16 low-nibble values followed by products of the 16 high-nibble
	// values (see galois_amd64.s).
	gfNibbleTable [256][32]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(gfLog[a])
		for b := 1; b < 256; b++ {
			gfMulTable[a][b] = gfExp[la+int(gfLog[b])]
		}
	}
	for c := 0; c < 256; c++ {
		for i := 0; i < 16; i++ {
			gfNibbleTable[c][i] = gfMulTable[c][i]
			gfNibbleTable[c][16+i] = gfMulTable[c][i<<4]
		}
	}
}

// mulTableOf returns c's 256-entry product table.
func mulTableOf(c byte) *[256]byte { return &gfMulTable[c] }

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b (b != 0).
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("storage: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a (a != 0).
func gfInv(a byte) byte {
	if a == 0 {
		panic("storage: GF(256) inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// gfPow returns a^n.
func gfPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(gfLog[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return gfExp[l]
}

// tableWord multiplies the eight bytes of x through t with
// register-resident lookups (t holds the products of one coefficient).
func tableWord(t *[256]byte, x uint64) uint64 {
	return uint64(t[byte(x)]) |
		uint64(t[byte(x>>8)])<<8 |
		uint64(t[byte(x>>16)])<<16 |
		uint64(t[byte(x>>24)])<<24 |
		uint64(t[byte(x>>32)])<<32 |
		uint64(t[byte(x>>40)])<<40 |
		uint64(t[byte(x>>48)])<<48 |
		uint64(t[byte(x>>56)])<<56
}

// mulAddTable accumulates dst ^= c·src where t is c's product table
// (t == mulTableOf(c)). Two words per iteration keep two independent
// lookup chains in flight; there are no per-byte bounds checks.
func mulAddTable(dst, src []byte, t *[256]byte) {
	for len(src) >= 16 && len(dst) >= 16 {
		x := binary.LittleEndian.Uint64(src)
		y := binary.LittleEndian.Uint64(src[8:16])
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^tableWord(t, x))
		binary.LittleEndian.PutUint64(dst[8:16], binary.LittleEndian.Uint64(dst[8:16])^tableWord(t, y))
		src, dst = src[16:], dst[16:]
	}
	for i := 0; i < len(src); i++ {
		dst[i] ^= t[src[i]]
	}
}

// mulSetTable writes dst = c·src (no accumulate, so callers skip a
// zero-fill pass for the first source of a parity row).
func mulSetTable(dst, src []byte, t *[256]byte) {
	for len(src) >= 16 && len(dst) >= 16 {
		x := binary.LittleEndian.Uint64(src)
		y := binary.LittleEndian.Uint64(src[8:16])
		binary.LittleEndian.PutUint64(dst, tableWord(t, x))
		binary.LittleEndian.PutUint64(dst[8:16], tableWord(t, y))
		src, dst = src[16:], dst[16:]
	}
	for i := 0; i < len(src); i++ {
		dst[i] = t[src[i]]
	}
}

// xorAdd accumulates dst ^= src (the c == 1 fast path), uint64 at a time.
func xorAdd(dst, src []byte) {
	for len(src) >= 16 && len(dst) >= 16 {
		x := binary.LittleEndian.Uint64(src) ^ binary.LittleEndian.Uint64(dst)
		y := binary.LittleEndian.Uint64(src[8:16]) ^ binary.LittleEndian.Uint64(dst[8:16])
		binary.LittleEndian.PutUint64(dst, x)
		binary.LittleEndian.PutUint64(dst[8:16], y)
		src, dst = src[16:], dst[16:]
	}
	for i := 0; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// mulAdd accumulates dst ^= c·src, dispatching to the fastest kernel:
// SIMD shuffle blocks when available, then the portable word-at-a-time
// table kernel for tails and non-SIMD hosts.
func mulAdd(dst, src []byte, c byte) {
	switch c {
	case 0:
	case 1:
		xorAdd(dst, src)
	default:
		if hasGaloisSIMD && len(src) >= 32 && len(dst) >= len(src) {
			blocks := len(src) >> 5
			galMulSIMD(dst, src, c, blocks, true)
			dst, src = dst[blocks<<5:], src[blocks<<5:]
		}
		mulAddTable(dst, src, mulTableOf(c))
	}
}

// mulSet writes dst = c·src with the same dispatch as mulAdd.
func mulSet(dst, src []byte, c byte) {
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		if hasGaloisSIMD && len(src) >= 32 && len(dst) >= len(src) {
			blocks := len(src) >> 5
			galMulSIMD(dst, src, c, blocks, false)
			dst, src = dst[blocks<<5:], src[blocks<<5:]
		}
		mulSetTable(dst, src, mulTableOf(c))
	}
}

// matrix is a dense byte matrix over GF(256).
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m *matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m *matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// mul returns m × o.
func (m *matrix) mul(o *matrix) *matrix {
	if m.cols != o.rows {
		panic("storage: matrix dimension mismatch")
	}
	out := newMatrix(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(r, k)
			if a == 0 {
				continue
			}
			for c := 0; c < o.cols; c++ {
				out.data[r*o.cols+c] ^= gfMul(a, o.at(k, c))
			}
		}
	}
	return out
}

// subMatrix returns rows [r0,r1) and cols [c0,c1).
func (m *matrix) subMatrix(r0, r1, c0, c1 int) *matrix {
	out := newMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			out.set(r-r0, c-c0, m.at(r, c))
		}
	}
	return out
}

// invert returns the inverse via Gauss–Jordan elimination, or false if the
// matrix is singular.
func (m *matrix) invert() (*matrix, bool) {
	if m.rows != m.cols {
		return nil, false
	}
	n := m.rows
	// Augmented [m | I].
	aug := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			aug.set(r, c, m.at(r, c))
		}
		aug.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if aug.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		if pivot != col {
			for c := 0; c < 2*n; c++ {
				v1, v2 := aug.at(col, c), aug.at(pivot, c)
				aug.set(col, c, v2)
				aug.set(pivot, c, v1)
			}
		}
		// Scale pivot row to 1.
		inv := gfInv(aug.at(col, col))
		for c := 0; c < 2*n; c++ {
			aug.set(col, c, gfMul(aug.at(col, c), inv))
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug.at(r, col)
			if f == 0 {
				continue
			}
			for c := 0; c < 2*n; c++ {
				aug.set(r, c, aug.at(r, c)^gfMul(f, aug.at(col, c)))
			}
		}
	}
	return aug.subMatrix(0, n, n, 2*n), true
}

// identity returns the n×n identity matrix.
func identity(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

// vandermonde returns the rows×cols Vandermonde matrix V[r][c] = r^c.
// Any k distinct rows of a Vandermonde matrix over GF(256) with rows <=
// 256 are linearly independent.
func vandermonde(rows, cols int) *matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfPow(byte(r), c))
		}
	}
	return m
}
