package core

import (
	"fmt"
	"slices"

	"faultmem/internal/fault"
)

// FMLUT is the fault-map look-up table: one nFM-bit entry per memory row
// recording the segment index of the row's faulty cell(s) (Fig. 3). In
// hardware it occupies nFM extra bit columns of the array (or a register
// file / CAM, see §5.1); functionally it is a small array of shift codes
// programmed by BIST.
type FMLUT struct {
	cfg Config
	x   []uint8
	// Reprogram scratch: the fault map's cells as (row, col) sort keys
	// and a per-row column buffer, reused so per-trial table rebuilds
	// are allocation-free.
	keys []uint64
	cols []int
}

// NewFMLUT returns an all-zero (no shift) FM-LUT for the given row count.
func NewFMLUT(cfg Config, rows int) *FMLUT {
	cfg.mustValidate()
	if rows <= 0 {
		panic(fmt.Sprintf("core: invalid row count %d", rows))
	}
	return &FMLUT{cfg: cfg, x: make([]uint8, rows)}
}

// BuildFMLUT constructs the FM-LUT for a fault map in data geometry
// (rows x Width): a fresh table programmed by Reprogram.
func BuildFMLUT(cfg Config, rows int, faults fault.Map) (*FMLUT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := NewFMLUT(cfg, rows)
	if err := l.Reprogram(faults); err != nil {
		return nil, err
	}
	return l, nil
}

// A Reprogram sort key is row<<colBits | col; colBits holds every
// column of every Width a Config accepts (at most 64).
const (
	colBits = 6
	colMask = 1<<colBits - 1
)

// Reprogram rebuilds the table in place for a fault map in data
// geometry (rows x Width), choosing the best entry for every faulty
// row: the functional equivalent of running BIST and programming the
// table (§3, step 1), and the per-trial path of Monte-Carlo loops that
// reuse one memory per arm.
//
// It sorts the map's cells by (row, col) in a reused scratch, which puts
// a duplicate cell next to its twin and each row's columns in ascending
// order, so the work is O(faults log faults) besides clearing the table
// and warm calls never touch the allocator. A row with one fault at
// column f gets f / SegmentSize(), the unique argmin of BestXCode there
// (any other entry moves the fault up by a multiple of the segment
// size); a row with more faults gets BestXCode of its columns. A map
// with a fault outside the table or a cell listed twice is rejected and
// leaves the table as it was.
func (l *FMLUT) Reprogram(faults fault.Map) error {
	rows, w := len(l.x), l.cfg.Width
	keys := l.keys[:0]
	for i, f := range faults {
		if f.Row < 0 || f.Row >= rows || f.Col < 0 || f.Col >= w {
			return fmt.Errorf("core: bad fault map: fault %d at (%d,%d) outside %dx%d array", i, f.Row, f.Col, rows, w)
		}
		keys = append(keys, uint64(f.Row)<<colBits|uint64(f.Col))
	}
	l.keys = keys
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("core: bad fault map: duplicate fault at (%d,%d)", keys[i]>>colBits, keys[i]&colMask)
		}
	}
	clear(l.x)
	seg := l.cfg.SegmentSize()
	for i := 0; i < len(keys); {
		row := keys[i] >> colBits
		j := i + 1
		for j < len(keys) && keys[j]>>colBits == row {
			j++
		}
		if j == i+1 {
			l.x[row] = uint8(int(keys[i]&colMask) / seg)
		} else {
			cols := l.cols[:0]
			for _, k := range keys[i:j] {
				cols = append(cols, int(k&colMask))
			}
			l.cols = cols
			l.x[row] = uint8(l.cfg.BestXCode(cols))
		}
		i = j
	}
	return nil
}

// Config returns the shuffling configuration of the table.
func (l *FMLUT) Config() Config { return l.cfg }

// Rows returns the number of entries.
func (l *FMLUT) Rows() int { return len(l.x) }

// X returns the entry of the given row.
func (l *FMLUT) X(row int) int {
	l.check(row)
	return int(l.x[row])
}

// Shift returns the rotation amount T(row) of Eq. (2).
func (l *FMLUT) Shift(row int) int {
	return l.cfg.ShiftForX(l.X(row))
}

func (l *FMLUT) check(row int) {
	if row < 0 || row >= len(l.x) {
		panic(fmt.Sprintf("core: FM-LUT row %d outside [0,%d)", row, len(l.x)))
	}
}

// StorageBits returns the total FM-LUT storage in bits (rows * nFM), the
// quantity the overhead model charges as extra columns.
func (l *FMLUT) StorageBits() int { return len(l.x) * l.cfg.NFM }
