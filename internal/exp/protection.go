// Package exp contains one runner per exhibit of the paper's evaluation —
// Fig. 2 (cell failure vs VDD), Fig. 4 (error magnitude per fault
// position), Fig. 5 (MSE CDF), Fig. 6 (hardware overhead), Fig. 7a-c
// (application quality CDFs), and Table 1 (applications summary) — plus
// the table rendering shared by cmd/faultmem and the root benchmarks.
package exp

import (
	"fmt"

	"faultmem/internal/core"
	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/yield"
)

// Protection enumerates the memory protection arms compared throughout
// the evaluation.
type Protection int

const (
	// ProtNone is the unprotected faulty memory.
	ProtNone Protection = iota
	// ProtECC is full-word H(39,32) SECDED.
	ProtECC
	// ProtPECC is H(22,16) priority ECC on the 16 MSBs.
	ProtPECC
	// ProtShuffle1..ProtShuffle5 are the bit-shuffling configurations.
	ProtShuffle1
	ProtShuffle2
	ProtShuffle3
	ProtShuffle4
	ProtShuffle5
)

// AllProtections returns every arm in presentation order.
func AllProtections() []Protection {
	return []Protection{
		ProtNone,
		ProtShuffle1, ProtShuffle2, ProtShuffle3, ProtShuffle4, ProtShuffle5,
		ProtPECC, ProtECC,
	}
}

// String returns the scheme name used in figures.
func (p Protection) String() string {
	switch p {
	case ProtNone:
		return "No Correction"
	case ProtECC:
		return "H(39,32) ECC"
	case ProtPECC:
		return "H(22,16) P-ECC"
	case ProtShuffle1, ProtShuffle2, ProtShuffle3, ProtShuffle4, ProtShuffle5:
		return fmt.Sprintf("nFM=%d-Bit", p.NFM())
	default:
		return fmt.Sprintf("protection(%d)", int(p))
	}
}

// NFM returns the FM-LUT width of a shuffling arm (0 for non-shuffling
// arms).
func (p Protection) NFM() int {
	if p >= ProtShuffle1 && p <= ProtShuffle5 {
		return int(p-ProtShuffle1) + 1
	}
	return 0
}

// Build constructs the functional memory of this arm over rows words
// with the given data-geometry fault map.
func (p Protection) Build(rows int, fm fault.Map) (mem.Word32, error) {
	switch p {
	case ProtNone:
		return mem.NewRaw(rows, fm)
	case ProtECC:
		return mem.NewECC(rows, fm, nil)
	case ProtPECC:
		return mem.NewPECC(rows, fm, nil)
	default:
		if n := p.NFM(); n > 0 {
			return core.NewShuffled(core.Config{Width: 32, NFM: n}, rows, fm)
		}
		return nil, fmt.Errorf("exp: unknown protection %d", int(p))
	}
}

// ID returns the typed scheme identifier of this arm — the canonical
// currency shared by the CLIs, the registry, and the public facade.
func (p Protection) ID() yield.SchemeID {
	switch p {
	case ProtNone:
		return yield.SchemeNone
	case ProtECC:
		return yield.SchemeECC
	case ProtPECC:
		return yield.SchemePECC
	default:
		if n := p.NFM(); n > 0 {
			return yield.SchemeNFM1 + yield.SchemeID(n-1)
		}
		panic(fmt.Sprintf("exp: unknown protection %d", int(p)))
	}
}

// YieldScheme returns the residual-error model of this arm for the
// Eq. (6) MSE analysis.
func (p Protection) YieldScheme() yield.Scheme { return p.ID().Scheme() }
