package sram

import (
	"fmt"
	"math"
	"math/rand"

	"faultmem/internal/stats"
)

// CellModel is the calibrated statistical failure model of a 6T SRAM
// bit-cell in a 28 nm process under supply-voltage scaling. It reproduces
// the Pcell-vs-VDD characteristic of Fig. 2: failure probability rises
// rapidly as VDD scales down, from ~1e-9 near nominal (1.0 V) to ~1e-2
// at 0.6 V.
//
// The model treats cell failure as a Gaussian margin crossing: the cell's
// composite noise margin at supply voltage V is beta(V) standard
// deviations of threshold-voltage variation, with beta affine in V:
//
//	Pcell(V) = Phi(-beta(V)),  beta(V) = Beta0 + BetaSlope*(V - VRef)
//
// This is the standard first-order yield model for parametric SRAM
// failures [Mukhopadhyay et al., IEEE TCAD 2005] and substitutes for the
// paper's in-house SPICE + hypersphere-sampling framework.
type CellModel struct {
	// VRef is the reference voltage at which beta = Beta0.
	VRef float64
	// Beta0 is the margin (in sigmas) at VRef.
	Beta0 float64
	// BetaSlope is the margin gain per volt of supply increase.
	BetaSlope float64
}

// Default28nm returns the cell model calibrated so that the published
// curve shape holds:
//
//	VDD 1.00 V -> Pcell ~ 2e-10
//	VDD 0.80 V -> Pcell ~ 1.5e-5
//	VDD 0.73 V -> Pcell ~ 2e-4   (16 KB yield ~ 0, as in §2)
//	VDD 0.60 V -> Pcell ~ 1e-2
func Default28nm() *CellModel {
	return &CellModel{VRef: 0.6, Beta0: 2.33, BetaSlope: 9.2}
}

// beta returns the margin in sigmas at the given supply voltage.
func (m *CellModel) beta(vdd float64) float64 {
	return m.Beta0 + m.BetaSlope*(vdd-m.VRef)
}

// Pcell returns the bit-cell failure probability at supply voltage vdd.
func (m *CellModel) Pcell(vdd float64) float64 {
	return stats.NormalCDF(-m.beta(vdd), 0, 1)
}

// VDDForPcell returns the supply voltage at which the failure probability
// equals p. It is the inverse of Pcell and panics for p outside (0, 1).
func (m *CellModel) VDDForPcell(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("sram: Pcell target %g outside (0,1)", p))
	}
	beta := -stats.NormalQuantile(p, 0, 1)
	return m.VRef + (beta-m.Beta0)/m.BetaSlope
}

// CriticalVDD returns the supply voltage below which a cell at failure
// quantile u fails (smaller u = weaker cell). Together with
// fault.SampleCriticalVoltages this realizes the fault-inclusion property:
// Pr(cell fails at V) = Pr(CriticalVDD(U) >= V) = Pcell(V) for U~Uniform.
func (m *CellModel) CriticalVDD(u float64) float64 {
	if u <= 0 || u >= 1 {
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		} else {
			u = 1 - 1e-16
		}
	}
	beta := -stats.NormalQuantile(u, 0, 1)
	return m.VRef + (beta-m.Beta0)/m.BetaSlope
}

// Yield returns the traditional zero-failure yield (1-Pcell)^cells of a
// memory with the given cell count at supply voltage vdd (§2).
func (m *CellModel) Yield(vdd float64, cells int) float64 {
	p := m.Pcell(vdd)
	return math.Exp(float64(cells) * math.Log1p(-p))
}

// ExpectedFailures returns cells * Pcell(vdd).
func (m *CellModel) ExpectedFailures(vdd float64, cells int) float64 {
	return float64(cells) * m.Pcell(vdd)
}

// SixT is a transistor-level statistical stability model of a 6T SRAM
// cell used by the spherical importance-sampling estimator. Each of the
// six transistors carries an independent standard-normal threshold-voltage
// deviation x[0..5] (in units of sigma-Vth); the cell fails when any of
// the failure mechanisms' margins is exhausted:
//
//	read-stability:  margins[0] - <readDir, x>  <= 0
//	write-margin:    margins[1] - <writeDir, x> <= 0
//	access-time:     margins[2] - <accessDir, x> <= 0
//
// Margins shrink affinely as VDD scales down. The linearized limit-state
// form is the standard abstraction for SRAM yield estimation and is what
// hypersphere-based importance sampling methods exploit [Date et al.,
// ISQED].
type SixT struct {
	// Margin per mechanism at VRef, in sigmas, and its slope per volt.
	Margin0 [3]float64
	Slope   [3]float64
	VRef    float64
	// Unit sensitivity direction of each mechanism in Vth-deviation space.
	Dir [3][6]float64
}

// NewSixT returns a 6T cell model whose dominant mechanism (read
// stability) matches the calibrated margin curve of Default28nm, with
// write margin and access time as weaker secondary mechanisms.
func NewSixT() *SixT {
	s := &SixT{
		Margin0: [3]float64{2.33, 3.1, 3.4},
		Slope:   [3]float64{9.2, 7.5, 11.0},
		VRef:    0.6,
		Dir: [3][6]float64{
			// Read stability: dominated by the pull-down / pass-gate pair.
			{0.62, 0.62, 0.33, 0.33, 0.10, 0.10},
			// Write margin: pull-up vs pass-gate contention.
			{0.15, 0.15, 0.55, 0.55, 0.40, 0.40},
			// Access time: pass-gate current.
			{0.10, 0.10, 0.70, 0.70, 0.05, 0.05},
		},
	}
	for i := range s.Dir {
		n := 0.0
		for _, v := range s.Dir[i] {
			n += v * v
		}
		n = math.Sqrt(n)
		for j := range s.Dir[i] {
			s.Dir[i][j] /= n
		}
	}
	return s
}

// Fails reports whether a cell with Vth deviations x (sigmas) fails at
// supply voltage vdd.
func (s *SixT) Fails(x [6]float64, vdd float64) bool {
	for i := 0; i < 3; i++ {
		margin := s.Margin0[i] + s.Slope[i]*(vdd-s.VRef)
		dot := 0.0
		for j := 0; j < 6; j++ {
			dot += s.Dir[i][j] * x[j]
		}
		if dot >= margin {
			return true
		}
	}
	return false
}

// chi6Survival returns Pr(R > r) for R the norm of a 6-dimensional
// standard normal vector (chi distribution with 6 degrees of freedom):
// S(r) = exp(-r^2/2) * (1 + r^2/2 + r^4/8).
func chi6Survival(r float64) float64 {
	if r <= 0 {
		return 1
	}
	x := r * r / 2
	return math.Exp(-x) * (1 + x + x*x/2)
}

// EstimatePcellIS estimates the cell failure probability of the 6T model
// at supply voltage vdd using spherical (hypersphere) importance
// sampling: directions are drawn uniformly on the 6-sphere, the minimal
// failure radius along each direction is found, and the exact chi-6 tail
// beyond that radius is accumulated. For a failure region that is a union
// of half-spaces this estimator is unbiased and needs orders of magnitude
// fewer samples than plain Monte Carlo at the tail probabilities of
// Fig. 2.
//
// directions is the number of sampled directions (e.g. 20000).
func (s *SixT) EstimatePcellIS(rng *rand.Rand, vdd float64, directions int) float64 {
	if directions <= 0 {
		panic("sram: non-positive direction count")
	}
	sum := 0.0
	for d := 0; d < directions; d++ {
		var dir [6]float64
		n := 0.0
		for j := 0; j < 6; j++ {
			dir[j] = rng.NormFloat64()
			n += dir[j] * dir[j]
		}
		n = math.Sqrt(n)
		if n == 0 {
			continue
		}
		for j := range dir {
			dir[j] /= n
		}
		// Minimal failure radius along dir: the failure region is a union
		// of half-spaces {<a_i, x> >= m_i}, so r*(dir) = min over
		// mechanisms with positive projection of m_i / <a_i, dir>.
		rStar := math.Inf(1)
		for i := 0; i < 3; i++ {
			margin := s.Margin0[i] + s.Slope[i]*(vdd-s.VRef)
			proj := 0.0
			for j := 0; j < 6; j++ {
				proj += s.Dir[i][j] * dir[j]
			}
			if proj > 0 && margin > 0 {
				if r := margin / proj; r < rStar {
					rStar = r
				}
			} else if margin <= 0 {
				rStar = 0
			}
		}
		if !math.IsInf(rStar, 1) {
			sum += chi6Survival(rStar)
		}
	}
	return sum / float64(directions)
}
