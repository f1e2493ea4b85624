// Package fault defines persistent bit-cell fault maps and the random
// fault-map generators used throughout the evaluation: exact failure
// counts, per-cell Bernoulli(Pcell) draws, and voltage-derived maps with
// the fault-inclusion property.
//
// A fault map is the post-manufacturing ground truth of one memory sample:
// once a die is fabricated (or a supply voltage chosen), the number and
// location of its variation-induced bit-cell failures is fixed (§2 of the
// paper).
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"faultmem/internal/stats"
)

// Kind describes the failure mode of a faulty bit-cell.
type Kind uint8

const (
	// Flip reads back the inverse of the stored bit. This is the default
	// model in the paper's analysis: a failure at bit b always costs 2^b
	// (Eq. 6), independent of the datum.
	Flip Kind = iota
	// StuckAt0 forces the cell to store/read 0.
	StuckAt0
	// StuckAt1 forces the cell to store/read 1.
	StuckAt1
)

// String returns a short human-readable name for the fault kind.
func (k Kind) String() string {
	switch k {
	case Flip:
		return "flip"
	case StuckAt0:
		return "sa0"
	case StuckAt1:
		return "sa1"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one faulty bit-cell at (Row, Col) with a failure mode.
type Fault struct {
	Row, Col int
	Kind     Kind
}

// Map is the set of faulty cells of one memory sample.
type Map []Fault

// Validate checks that every fault lies within a rows x width array and
// that no cell is listed twice. It returns a descriptive error otherwise.
func (m Map) Validate(rows, width int) error {
	// Small maps (the per-trial Monte-Carlo path: ~Pcell*cells faults)
	// use a quadratic duplicate scan so validation stays allocation-free
	// in hot loops; large maps fall back to a hash set.
	const smallMap = 512
	if len(m) <= smallMap {
		for j, f := range m {
			if f.Row < 0 || f.Row >= rows || f.Col < 0 || f.Col >= width {
				return fmt.Errorf("fault %d at (%d,%d) outside %dx%d array", j, f.Row, f.Col, rows, width)
			}
			for i := 0; i < j; i++ {
				if m[i].Row == f.Row && m[i].Col == f.Col {
					return fmt.Errorf("duplicate fault at (%d,%d)", f.Row, f.Col)
				}
			}
		}
		return nil
	}
	seen := make(map[[2]int]struct{}, len(m))
	for i, f := range m {
		if f.Row < 0 || f.Row >= rows || f.Col < 0 || f.Col >= width {
			return fmt.Errorf("fault %d at (%d,%d) outside %dx%d array", i, f.Row, f.Col, rows, width)
		}
		key := [2]int{f.Row, f.Col}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("duplicate fault at (%d,%d)", f.Row, f.Col)
		}
		seen[key] = struct{}{}
	}
	return nil
}

// ByRow groups the faulty column indices by row. Rows without faults are
// absent from the result.
func (m Map) ByRow() map[int][]int {
	out := make(map[int][]int)
	for _, f := range m {
		out[f.Row] = append(out[f.Row], f.Col)
	}
	for r := range out {
		sort.Ints(out[r])
	}
	return out
}

// RowsAffected returns the number of distinct rows containing at least one
// fault.
func (m Map) RowsAffected() int {
	rows := make(map[int]struct{})
	for _, f := range m {
		rows[f.Row] = struct{}{}
	}
	return len(rows)
}

// MaxFaultsPerRow returns the largest number of faults sharing one row
// (0 for an empty map).
func (m Map) MaxFaultsPerRow() int {
	counts := make(map[int]int)
	max := 0
	for _, f := range m {
		counts[f.Row]++
		if counts[f.Row] > max {
			max = counts[f.Row]
		}
	}
	return max
}

// Clone returns a deep copy of the map.
func (m Map) Clone() Map {
	return append(Map(nil), m...)
}

// GenerateCount draws a fault map with exactly n faults placed uniformly
// at random over distinct cells of a rows x width array, all with the
// given kind. This matches the paper's fault-injection procedure for a
// fixed failure count (§4: "generating maps of random bit-flip locations
// for each failure count").
func GenerateCount(rng *rand.Rand, rows, width, n int, kind Kind) Map {
	cells := rows * width
	if n > cells {
		panic(fmt.Sprintf("fault: %d faults exceed %d cells", n, cells))
	}
	idx := stats.SampleDistinct(rng, cells, n)
	m := make(Map, n)
	for i, c := range idx {
		m[i] = Fault{Row: c / width, Col: c % width, Kind: kind}
	}
	return m
}

// GeneratePcell draws a fault map where each of the rows x width cells
// fails independently with probability pcell (Eq. 4's Bernoulli model).
// The failure count is drawn exactly from Binomial(rows*width, pcell)
// (stats.SampleBinomial, by inversion at every mean) and the positions
// are placed uniformly among the cells, which together is the exact
// joint distribution of the failed cells.
func GeneratePcell(rng *rand.Rand, rows, width int, pcell float64, kind Kind) Map {
	n := stats.SampleBinomial(rng, rows*width, pcell)
	return GenerateCount(rng, rows, width, n, kind)
}

// RandomKinds reassigns each fault in m a kind drawn uniformly from kinds,
// returning a new map. Useful for BIST coverage studies on mixed fault
// populations.
func RandomKinds(rng *rand.Rand, m Map, kinds []Kind) Map {
	if len(kinds) == 0 {
		panic("fault: RandomKinds with no kinds")
	}
	out := m.Clone()
	for i := range out {
		out[i].Kind = kinds[rng.Intn(len(kinds))]
	}
	return out
}
