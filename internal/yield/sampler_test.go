package yield

import (
	"slices"
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/stats"
)

func TestRowSamplerDrawExactCount(t *testing.T) {
	s := NewRowSampler(64, 32)
	rng := stats.NewRand(3)
	for _, n := range []int{0, 1, 5, 40, 200} {
		s.Draw(rng, n)
		total := 0
		for _, r := range s.Rows() {
			mask := s.Mask(r)
			if mask == 0 {
				t.Fatalf("n=%d: touched row %d has empty mask", n, r)
			}
			for m := mask; m != 0; m &= m - 1 {
				total++
			}
		}
		if total != n {
			t.Fatalf("n=%d: sampler holds %d faults", n, total)
		}
	}
}

func TestRowSamplerResetBetweenDraws(t *testing.T) {
	s := NewRowSampler(32, 32)
	rng := stats.NewRand(1)
	s.Draw(rng, 100)
	s.Draw(rng, 1)
	if len(s.Rows()) != 1 {
		t.Fatalf("stale rows after redraw: %v", s.Rows())
	}
	seen := 0
	for r := 0; r < 32; r++ {
		if s.Mask(r) != 0 {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("%d rows carry stale masks", seen)
	}
}

func TestRowSamplerUniformOverCells(t *testing.T) {
	// Chi-square-style sanity check: each of the 512 cells of a 16x32
	// array should receive ~ draws*4/512 hits.
	s := NewRowSampler(16, 32)
	rng := stats.NewRand(7)
	hits := make([]int, 512)
	const draws = 20000
	for i := 0; i < draws; i++ {
		s.Draw(rng, 4)
		for _, r := range s.Rows() {
			for m := s.Mask(r); m != 0; m &= m - 1 {
				c := 0
				for v := m & (-m); v > 1; v >>= 1 {
					c++
				}
				hits[r*32+c]++
			}
		}
	}
	want := float64(draws) * 4 / 512
	for i, h := range hits {
		if float64(h) < want*0.7 || float64(h) > want*1.3 {
			t.Fatalf("cell %d: %d hits, want ~%.0f", i, h, want)
		}
	}
}

func TestRowSamplerFaultsExport(t *testing.T) {
	s := NewRowSampler(64, 32)
	rng := stats.NewRand(11)
	s.Draw(rng, 23)
	fm := s.Faults(fault.Flip)
	if len(fm) != 23 {
		t.Fatalf("exported %d faults", len(fm))
	}
	if err := fm.Validate(64, 32); err != nil {
		t.Fatal(err)
	}
	// The export must agree with the masks.
	for _, f := range fm {
		if s.Mask(f.Row)&(1<<uint(f.Col)) == 0 {
			t.Fatalf("exported fault (%d,%d) not in mask", f.Row, f.Col)
		}
	}
}

func TestRowSamplerMSEMatchesResidualPath(t *testing.T) {
	// The mask path must agree exactly with the legacy Residual-slice
	// path for every scheme on the same fault sets.
	rng := stats.NewRand(99)
	schemes := []Scheme{
		Unprotected{}, NewShuffled(1), NewShuffled(2), NewShuffled(5),
		FullECC{}, PriorityECC{}, PriorityECC{Protected: 8}, PriorityECC{Protected: 24},
	}
	s := NewRowSampler(64, 32)
	for trial := 0; trial < 2000; trial++ {
		fm := fault.GenerateCount(rng, 64, 32, rng.Intn(12)+1, fault.Flip)
		s.Reset()
		for _, f := range fm {
			if s.masks[f.Row] == 0 {
				s.touched = append(s.touched, f.Row)
			}
			s.masks[f.Row] |= 1 << uint(f.Col)
		}
		for _, sch := range schemes {
			want := MSEFromRowFaults(fm.ByRow(), 64, sch)
			got := s.MSE(sch)
			diff := want - got
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-9*(want+1) {
				t.Fatalf("scheme %s: mask MSE %g != residual MSE %g (map %v)",
					sch.Name(), got, want, fm)
			}
		}
	}
}

func TestShuffledRowMSEWithoutMemo(t *testing.T) {
	// A hand-built Shuffled value (no memo) must agree with NewShuffled.
	fast := NewShuffled(3)
	slow := Shuffled{Cfg: fast.Cfg}
	for c := 0; c < 32; c++ {
		m := uint64(1) << uint(c)
		if fast.RowMSE(m) != slow.RowMSE(m) {
			t.Fatalf("col %d: memo %g != direct %g", c, fast.RowMSE(m), slow.RowMSE(m))
		}
	}
	if fast.RowMSE(0b1010010) != slow.RowMSE(0b1010010) {
		t.Fatal("multi-fault mask disagrees")
	}
}

func TestDrawStreamMatchesIntn(t *testing.T) {
	// From equal seeds the sampler draws rng.Intn(cells)'s sequence of
	// cells, and Draw places them as a loop of Intn calls with duplicate
	// redraws does: on arrays of a power-of-two cell count (4096x32,
	// 4x8), of others (37x32, 3x8) and of a single cell.
	for _, g := range []struct{ rows, width int }{{4096, 32}, {37, 32}, {4, 8}, {3, 8}, {1, 1}} {
		s := NewRowSampler(g.rows, g.width)
		cells := g.rows * g.width
		got, want := stats.NewRand(int64(cells)), stats.NewRand(int64(cells))
		for i := range 10000 {
			if c, w := s.cell(got), want.Intn(cells); c != w {
				t.Fatalf("%dx%d draw %d: cell %d, Intn %d", g.rows, g.width, i, c, w)
			}
		}
		ref := make([]uint64, g.rows)
		for i := range 2000 {
			n := 1 + i%min(cells, 9)
			s.Draw(got, n)
			clear(ref)
			var order []int
			for placed := 0; placed < n; {
				c := want.Intn(cells)
				row, bit := c/g.width, uint64(1)<<(c%g.width)
				if ref[row]&bit != 0 {
					continue
				}
				if ref[row] == 0 {
					order = append(order, row)
				}
				ref[row] |= bit
				placed++
			}
			if !slices.Equal(s.Rows(), order) {
				t.Fatalf("%dx%d die %d: rows %v, Intn loop %v", g.rows, g.width, i, s.Rows(), order)
			}
			for _, r := range order {
				if s.Mask(r) != ref[r] {
					t.Fatalf("%dx%d die %d row %d: mask %#x, Intn loop %#x", g.rows, g.width, i, r, s.Mask(r), ref[r])
				}
			}
		}
	}
}
