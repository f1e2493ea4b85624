// Package ecc implements single-error-correction / double-error-detection
// (SECDED) extended Hamming codes for arbitrary data widths up to 57 bits,
// including the two codes the paper evaluates: H(39,32) for full-word ECC
// and H(22,16) for priority-based ECC on the 16 most significant bits.
//
// Codewords are uint64 values. Bit 0 of a codeword is the overall parity
// bit; bits 1..k+r follow the classic Hamming layout in which parity bits
// occupy the power-of-two positions and data bits fill the remaining
// positions in ascending order (data bit 0 = LSB of the datum at the first
// non-power-of-two position).
package ecc

import (
	"fmt"
	"math/bits"
	"sync"
)

// Status classifies the outcome of a decode.
type Status uint8

const (
	// OK means the codeword was error-free.
	OK Status = iota
	// Corrected means exactly one bit error was detected and corrected
	// (it may have been a parity bit, in which case the data was already
	// intact).
	Corrected
	// DetectedUncorrectable means a double (or detectable multi-bit) error
	// was found; the returned data is the raw, possibly corrupted payload.
	DetectedUncorrectable
)

// String returns a short name for the decode status.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case DetectedUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Code is a SECDED extended Hamming code for k data bits. A Code is
// immutable, and New returns one shared Code per data width, so its
// tables are built once per width however many memories use it.
type Code struct {
	k, r, n int    // data bits, Hamming parity bits, total bits (k+r+1)
	kMask   uint64 // the low k bits
	dataPos []int  // codeword position of each data bit, LSB-first

	// The code is linear over GF(2): a codeword is the XOR of the
	// codewords of its datum's bytes, and the data bits, syndrome and
	// overall parity a decode needs are the XOR of its codeword bytes'
	// shares. enc[j][b] is the codeword of the datum b<<8j. dec[j][b] is
	// the share of the codeword byte b<<8j: its data bits in bits
	// 0..k-1, its syndrome (the XOR of its set bits' positions) in bits
	// k..k+r-1 and its parity at bit k+r. Bits above the datum or the
	// codeword have no share, so the tables also mask the input.
	enc, dec [][256]uint64
	// fix maps a decode's syndrome and overall parity (its share's bits
	// above k) to the decode's outcome.
	fix []outcome
}

// outcome is the decode decision for one syndrome and overall parity.
type outcome struct {
	flip uint64 // data bits the correction flips
	st   Status
	pos  int8 // repaired codeword position, -1 if none
}

// codes holds the one Code per data width, built on first use.
var codes [58]struct {
	once sync.Once
	c    *Code
}

// New returns the SECDED code for k data bits: r parity bits with
// 2^r >= k+r+1, plus one overall parity bit, for a total of k+r+1 bits.
// k must be in [1, 57] so the codeword fits a uint64. Every call with
// the same k returns the same Code.
func New(k int) (*Code, error) {
	if k < 1 || k > 57 {
		return nil, fmt.Errorf("ecc: data width %d outside [1,57]", k)
	}
	e := &codes[k]
	e.once.Do(func() { e.c = build(k) })
	return e.c, nil
}

// build lays out the code for k data bits and fills its tables.
func build(k int) *Code {
	r := 0
	for (1 << uint(r)) < k+r+1 {
		r++
	}
	c := &Code{k: k, r: r, n: k + r + 1, kMask: uint64(1)<<uint(k) - 1}
	for p := 1; p <= k+r; p++ {
		if p&(p-1) != 0 { // not a power of two -> data position
			c.dataPos = append(c.dataPos, p)
		}
	}
	// The codeword of data bit i at position p: the bit itself, the
	// Hamming parity bit 1<<t for every bit t set in p, and the overall
	// parity that makes the popcount even.
	encBit := make([]uint64, k)
	for i, p := range c.dataPos {
		cw := uint64(1) << uint(p)
		for t := 0; t < r; t++ {
			if p&(1<<uint(t)) != 0 {
				cw |= uint64(1) << uint(1<<uint(t))
			}
		}
		encBit[i] = cw | uint64(bits.OnesCount64(cw)&1)
	}
	// The share of codeword position q: its syndrome q, its parity and,
	// at a data position, its data bit.
	decBit := make([]uint64, c.n)
	for q := range decBit {
		decBit[q] = uint64(q)<<uint(k) | uint64(1)<<uint(k+r)
	}
	for i, p := range c.dataPos {
		decBit[p] |= uint64(1) << uint(i)
	}
	c.enc, c.dec = byteTables(encBit), byteTables(decBit)

	// Index syn | overall<<r. Even parity with a zero syndrome is clean;
	// odd parity with a syndrome inside the codeword is one flipped bit
	// (the overall parity bit itself when the syndrome is zero); every
	// other combination is a detected multi-bit error.
	c.fix = make([]outcome, 2<<uint(r))
	for idx := range c.fix {
		syn, odd := idx&(1<<uint(r)-1), idx>>uint(r) == 1
		o := outcome{st: DetectedUncorrectable, pos: -1}
		switch {
		case syn == 0 && !odd:
			o.st = OK
		case odd && syn <= k+r:
			o.st, o.pos, o.flip = Corrected, int8(syn), decBit[syn]&c.kMask
		}
		c.fix[idx] = o
	}
	return c
}

// byteTables returns the per-byte tables of the GF(2)-linear map that
// takes input bit i to col[i]: t[j][b] is the XOR of col[8j+s] over the
// set bits s of b. Input bits past len(col) map to zero.
func byteTables(col []uint64) [][256]uint64 {
	t := make([][256]uint64, (len(col)+7)/8)
	for j := range t {
		for b := 1; b < 256; b++ {
			v := t[j][b&(b-1)] // b without its lowest set bit
			if i := 8*j + bits.TrailingZeros(uint(b)); i < len(col) {
				v ^= col[i]
			}
			t[j][b] = v
		}
	}
	return t
}

// MustNew is New but panics on error; for the package presets.
func MustNew(k int) *Code {
	c, err := New(k)
	if err != nil {
		panic(err)
	}
	return c
}

// H39_32 returns the H(39,32) SECDED code used for full 32-bit words
// (7 check bits: 6 Hamming + 1 overall parity).
func H39_32() *Code { return MustNew(32) }

// H22_16 returns the H(22,16) SECDED code used by priority-based ECC on
// the upper 16 bits of a word (6 check bits: 5 Hamming + 1 overall).
func H22_16() *Code { return MustNew(16) }

// DataBits returns k, the payload width.
func (c *Code) DataBits() int { return c.k }

// ParityBits returns the total number of check bits (r Hamming + 1
// overall), i.e. the storage overhead per word.
func (c *Code) ParityBits() int { return c.r + 1 }

// CodewordBits returns n = k + r + 1.
func (c *Code) CodewordBits() int { return c.n }

// Name returns the conventional H(n,k) name, e.g. "H(39,32)".
func (c *Code) Name() string { return fmt.Sprintf("H(%d,%d)", c.n, c.k) }

// Encode maps a k-bit datum to its n-bit codeword (bits above k are
// ignored).
func (c *Code) Encode(data uint64) uint64 { return c.encode(data) }

// encode is the per-word encode kernel of Encode and EncodeBatch.
func (c *Code) encode(data uint64) uint64 {
	var cw uint64
	for j := range c.enc {
		cw ^= c.enc[j][uint8(data>>uint(8*j))]
	}
	return cw
}

// share returns the XOR of the decode shares of cw's bytes (bits above
// n are ignored).
func (c *Code) share(cw uint64) uint64 {
	var s uint64
	for j := range c.dec {
		s ^= c.dec[j][uint8(cw>>uint(8*j))]
	}
	return s
}

// decode is the per-word decode kernel of Decode and DecodeBatch: the
// corrected datum and the decode's outcome.
func (c *Code) decode(cw uint64) (uint64, outcome) {
	s := c.share(cw)
	o := c.fix[s>>uint(c.k)]
	return s&c.kMask ^ o.flip, o
}

// Decode checks and corrects an n-bit codeword, returning the recovered
// datum, the decode status, and for Corrected the codeword bit position
// that was repaired (-1 otherwise). A detected-uncorrectable word
// returns its raw payload.
func (c *Code) Decode(cw uint64) (data uint64, st Status, fixedPos int) {
	data, o := c.decode(cw)
	return data, o.st, int(o.pos)
}

// ExtractData returns the raw payload bits of a codeword without any
// checking, used to model the no-time-to-correct bypass path and
// uncorrectable-error fallback.
func (c *Code) ExtractData(cw uint64) uint64 { return c.share(cw) & c.kMask }

// DataPositions returns a copy of the codeword positions of the data bits
// (index = data bit, value = codeword position). The hardware overhead
// model uses this to size the encoder XOR trees.
func (c *Code) DataPositions() []int {
	return append([]int(nil), c.dataPos...)
}

// ParityFanIn returns, for each of the r Hamming parity bits, the number
// of data bits it covers, and the fan-in of the overall parity (all
// k+r bits). These set the XOR-tree sizes in the synthesis model.
func (c *Code) ParityFanIn() (hamming []int, overall int) {
	hamming = make([]int, c.r)
	for i := range hamming {
		for _, p := range c.dataPos {
			if p&(1<<uint(i)) != 0 {
				hamming[i]++
			}
		}
	}
	return hamming, c.k + c.r
}
