package hw

import (
	"testing"

	"faultmem/internal/core"
)

func TestLUTRealizationNames(t *testing.T) {
	if LUTColumns.String() != "SRAM columns" || LUTRegisterFile.String() != "register file" {
		t.Error("realization names wrong")
	}
	if LUTRealization(9).String() == "" {
		t.Error("unknown realization empty")
	}
}

func TestShuffleWritePathReadBeforeWrite(t *testing.T) {
	// §5.1: the SRAM-column LUT forces a read before every write — its
	// write latency must exceed the register-file variant by the array
	// access time.
	l := Lib28nm()
	m := Macro28nm(4096)
	cfg := core.Config{Width: 32, NFM: 3}
	col := ShuffleWriteOverhead(l, m, cfg, LUTColumns)
	reg := ShuffleWriteOverhead(l, m, cfg, LUTRegisterFile)
	if col.Delay-reg.Delay != m.AccessDelay {
		t.Errorf("read-before-write penalty %g, want %g", col.Delay-reg.Delay, m.AccessDelay)
	}
	// The register file pays in area instead for a deep macro.
	if reg.LUTArea <= col.LUTArea {
		t.Errorf("register file area %g not above column area %g for 4096 rows",
			reg.LUTArea, col.LUTArea)
	}
}

func TestShuffleWriteRegFileAreaScalesWithRows(t *testing.T) {
	l := Lib28nm()
	cfg := core.Config{Width: 32, NFM: 2}
	small := ShuffleWriteOverhead(l, Macro28nm(256), cfg, LUTRegisterFile)
	big := ShuffleWriteOverhead(l, Macro28nm(4096), cfg, LUTRegisterFile)
	if big.LUTArea != 16*small.LUTArea {
		t.Errorf("flop area not linear in rows: %g vs %g", big.LUTArea, small.LUTArea)
	}
}

func TestLUTAblationShape(t *testing.T) {
	rows := LUTAblation(Lib28nm(), Macro28nm(4096))
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.NFM != i+1 {
			t.Errorf("row %d nFM %d", i, r.NFM)
		}
		if r.ColumnWriteDelay <= r.RegFileWriteDelay {
			t.Errorf("nFM=%d: column write delay should exceed regfile", r.NFM)
		}
		if i > 0 && (r.ColumnArea <= rows[i-1].ColumnArea || r.RegFileArea <= rows[i-1].RegFileArea) {
			t.Errorf("areas not monotone at nFM=%d", r.NFM)
		}
		if r.ReadDelay != ShuffleOverhead(Lib28nm(), Macro28nm(4096), core.Config{Width: 32, NFM: r.NFM}).ReadDelay {
			t.Errorf("nFM=%d read delay mismatch", r.NFM)
		}
	}
}
