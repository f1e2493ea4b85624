package mem

import (
	"fmt"

	"faultmem/internal/ecc"
	"faultmem/internal/fault"
	"faultmem/internal/sram"
)

// ECC is a memory protected by a full-word H(39,32) SECDED code, as in
// Fig. 1 of the paper: every 32-bit write is expanded to a 39-bit
// codeword; every read decodes, correcting single errors and flagging
// double errors. On an uncorrectable error the raw payload is returned
// (there is nothing better to do at the memory level).
type ECC struct {
	arr   *sram.Array
	code  *ecc.Code
	stats Stats
	key   string       // precomputed ImageKey
	buf   []uint64     // batch-read codeword scratch
	sts   []ecc.Status // batch-read per-word status scratch
	// Reset scratch: cached data-bit codeword positions and a reusable
	// translated-fault buffer.
	dataPos []int
	physBuf fault.Map
}

// NewECC builds an H(39,32)-protected memory over rows words. dataFaults
// is in data geometry (cols in [0,32)); those faults are placed at the
// codeword positions holding the corresponding data bits. checkFaults
// (optional, may be nil) injects additional faults into check-bit cells:
// cols in [0, ParityBits) index the overall-parity bit (0) followed by the
// Hamming parity bits in position order.
func NewECC(rows int, dataFaults, checkFaults fault.Map) (*ECC, error) {
	code := ecc.H39_32()
	arr := sram.NewArray(rows, code.CodewordBits())
	translated, err := translateCodewordFaults(code, rows, dataFaults, checkFaults)
	if err != nil {
		return nil, err
	}
	if err := arr.SetFaults(translated); err != nil {
		return nil, err
	}
	return &ECC{arr: arr, code: code, key: "ecc:" + code.Name(), dataPos: code.DataPositions()}, nil
}

// Reset reinstalls a new data-geometry fault map in place with
// fault-free check bits and zeroed decode stats (see Resetter). It
// checks only the column bound it needs to translate a fault: the
// translation is one-to-one on the rows and data columns, so the
// array's SetFaults catches bad rows, duplicate cells and unknown
// kinds (its errors name the physical column).
func (e *ECC) Reset(dataFaults fault.Map) error {
	phys, err := translateData(e.physBuf, dataFaults, e.arr.Rows(), 0, e.dataPos)
	e.physBuf = phys
	if err != nil {
		return err
	}
	if err := e.arr.SetFaults(phys); err != nil {
		return err
	}
	e.stats = Stats{}
	return nil
}

// translateData appends to buf[:0] the physical faults of a
// data-geometry map for a row layout of lowBits raw data columns
// followed by a codeword whose data bits sit at dataPos: data column c
// is physical column c below lowBits and lowBits + dataPos[c-lowBits]
// above. A fault outside the data columns gets Validate's message for
// it, behind the "mem: bad data fault map" prefix.
func translateData(buf, dataFaults fault.Map, rows, lowBits int, dataPos []int) (fault.Map, error) {
	width := lowBits + len(dataPos)
	phys := buf[:0]
	for i, f := range dataFaults {
		col := f.Col
		if col < 0 || col >= width {
			return phys, fmt.Errorf("mem: bad data fault map: fault %d at (%d,%d) outside %dx%d array", i, f.Row, f.Col, rows, width)
		}
		if col >= lowBits {
			col = lowBits + dataPos[col-lowBits]
		}
		phys = append(phys, fault.Fault{Row: f.Row, Col: col, Kind: f.Kind})
	}
	return phys, nil
}

// translateCodewordFaults maps data-geometry and check-bit-geometry fault
// maps onto the physical codeword columns of code.
func translateCodewordFaults(code *ecc.Code, rows int, dataFaults, checkFaults fault.Map) (fault.Map, error) {
	if err := dataFaults.Validate(rows, code.DataBits()); err != nil {
		return nil, fmt.Errorf("mem: bad data fault map: %w", err)
	}
	dataPos := code.DataPositions()
	out := make(fault.Map, 0, len(dataFaults)+len(checkFaults))
	for _, f := range dataFaults {
		out = append(out, fault.Fault{Row: f.Row, Col: dataPos[f.Col], Kind: f.Kind})
	}
	if len(checkFaults) > 0 {
		if err := checkFaults.Validate(rows, code.ParityBits()); err != nil {
			return nil, fmt.Errorf("mem: bad check-bit fault map: %w", err)
		}
		// Check-bit columns: index 0 = overall parity (codeword bit 0),
		// then the Hamming parity bits at power-of-two positions.
		checkPos := make([]int, 0, code.ParityBits())
		checkPos = append(checkPos, 0)
		for i := 0; i < code.ParityBits()-1; i++ {
			checkPos = append(checkPos, 1<<uint(i))
		}
		for _, f := range checkFaults {
			out = append(out, fault.Fault{Row: f.Row, Col: checkPos[f.Col], Kind: f.Kind})
		}
	}
	return out, nil
}

// Read decodes the word at addr.
func (e *ECC) Read(addr int) uint32 {
	v, _ := e.ReadChecked(addr)
	return v
}

// ReadChecked decodes the word at addr and reports the decoder's
// double-error flag.
func (e *ECC) ReadChecked(addr int) (uint32, bool) {
	e.stats.Reads++
	data, st, _ := e.code.Decode(e.arr.Read(addr))
	switch st {
	case ecc.Corrected:
		e.stats.Corrected++
	case ecc.DetectedUncorrectable:
		e.stats.Uncorrectable++
	}
	return uint32(data), st == ecc.DetectedUncorrectable
}

// ReadBatch decodes the words at addr+i into dst[i], tallying decode
// outcomes exactly as per-word Read does, and flags the double errors
// in due when it is not nil.
func (e *ECC) ReadBatch(addr int, dst []uint32, due *DUESet, base int) {
	e.buf = growBuf(e.buf, len(dst))
	e.arr.ReadBatch(addr, e.buf)
	e.sts = growStatusBuf(e.sts, len(dst))
	corrected, uncorrectable := e.code.DecodeBatch(e.buf, e.buf, e.sts)
	e.stats.Reads += uint64(len(dst))
	e.stats.Corrected += corrected
	e.stats.Uncorrectable += uncorrectable
	for i, w := range e.buf {
		dst[i] = uint32(w)
	}
	if due != nil && uncorrectable > 0 {
		flagDUEs(due, e.sts, base)
	}
}

// Write encodes and stores v at addr.
func (e *ECC) Write(addr int, v uint32) {
	e.arr.Write(addr, e.code.Encode(uint64(v)))
}

// Words returns the address space size.
func (e *ECC) Words() int { return e.arr.Rows() }

// ImageKey identifies the SECDED encode transform.
func (e *ECC) ImageKey() string { return e.key }

// EncodeImage fills img with the clean codewords of src.
func (e *ECC) EncodeImage(img []uint64, src []uint32) {
	checkImageLen(img, src)
	for i, v := range src {
		img[i] = uint64(v)
	}
	e.code.EncodeBatch(img, img)
}

// WriteImage stores precomputed codewords at addr+i, subject to the
// array's stuck-at masks.
func (e *ECC) WriteImage(addr int, img []uint64) { e.arr.WriteBatch(addr, img) }

// Stats returns the decode outcome counters.
func (e *ECC) Stats() Stats { return e.stats }

// Code returns the SECDED code in use.
func (e *ECC) Code() *ecc.Code { return e.code }

// Array exposes the underlying codeword array (39 columns) for fault
// studies.
func (e *ECC) Array() *sram.Array { return e.arr }

// PECC is a priority-based-ECC memory [Lee et al.; Emre et al.]: only
// the most significant bits of each word are protected by a SECDED code,
// while the low-order bits are stored unprotected. The paper's
// configuration protects the 16 MSBs with H(22,16); NewPartialECC
// generalizes the split. Physical layout per row: the unprotected low
// bits first, then the codeword of the protected high bits.
type PECC struct {
	arr     *sram.Array
	code    *ecc.Code
	lowBits int
	stats   Stats
	key     string       // precomputed ImageKey
	buf     []uint64     // batch-read row scratch
	sts     []ecc.Status // batch-read per-word status scratch
	// Reset scratch: cached data-bit codeword positions and a reusable
	// translated-fault buffer.
	dataPos []int
	physBuf fault.Map
}

// NewPECC builds the paper's H(22,16)-on-16-MSBs priority-ECC memory.
// dataFaults is in data geometry; faults at cols 0..15 land in the raw
// lower half, faults at cols 16..31 land at the codeword positions of the
// corresponding upper-half data bits. checkFaults (optional) indexes the
// 6 check-bit cells of the upper-half code as in NewECC.
func NewPECC(rows int, dataFaults, checkFaults fault.Map) (*PECC, error) {
	return NewPartialECC(rows, 16, dataFaults, checkFaults)
}

// NewPartialECC builds a priority-ECC memory protecting the
// protectedMSBs most significant bits of each 32-bit word (1..31) with
// the matching SECDED code.
func NewPartialECC(rows, protectedMSBs int, dataFaults, checkFaults fault.Map) (*PECC, error) {
	if protectedMSBs < 1 || protectedMSBs > 31 {
		return nil, fmt.Errorf("mem: protected MSB count %d outside [1,31]", protectedMSBs)
	}
	code, err := ecc.New(protectedMSBs)
	if err != nil {
		return nil, err
	}
	lowBits := DataWidth - protectedMSBs
	if err := dataFaults.Validate(rows, DataWidth); err != nil {
		return nil, fmt.Errorf("mem: bad data fault map: %w", err)
	}
	arr := sram.NewArray(rows, lowBits+code.CodewordBits())
	dataPos := code.DataPositions()
	phys := make(fault.Map, 0, len(dataFaults)+len(checkFaults))
	for _, f := range dataFaults {
		col := f.Col
		if col >= lowBits {
			col = lowBits + dataPos[f.Col-lowBits]
		}
		phys = append(phys, fault.Fault{Row: f.Row, Col: col, Kind: f.Kind})
	}
	if len(checkFaults) > 0 {
		if err := checkFaults.Validate(rows, code.ParityBits()); err != nil {
			return nil, fmt.Errorf("mem: bad check-bit fault map: %w", err)
		}
		checkPos := []int{0}
		for i := 0; i < code.ParityBits()-1; i++ {
			checkPos = append(checkPos, 1<<uint(i))
		}
		for _, f := range checkFaults {
			phys = append(phys, fault.Fault{Row: f.Row, Col: lowBits + checkPos[f.Col], Kind: f.Kind})
		}
	}
	if err := arr.SetFaults(phys); err != nil {
		return nil, err
	}
	return &PECC{arr: arr, code: code, lowBits: lowBits, key: "pecc:" + code.Name(), dataPos: dataPos}, nil
}

// Reset reinstalls a new data-geometry fault map in place with
// fault-free check bits and zeroed decode stats (see Resetter). As in
// ECC.Reset, only the column bound is checked here and the array's
// SetFaults catches the rest.
func (p *PECC) Reset(dataFaults fault.Map) error {
	phys, err := translateData(p.physBuf, dataFaults, p.arr.Rows(), p.lowBits, p.dataPos)
	p.physBuf = phys
	if err != nil {
		return err
	}
	if err := p.arr.SetFaults(phys); err != nil {
		return err
	}
	p.stats = Stats{}
	return nil
}

// Read returns the word at addr: raw low bits, decoded high bits.
func (p *PECC) Read(addr int) uint32 {
	v, _ := p.ReadChecked(addr)
	return v
}

// ReadChecked is Read plus the upper-half decoder's double-error flag
// (the unprotected low bits carry no detection capability).
func (p *PECC) ReadChecked(addr int) (uint32, bool) {
	p.stats.Reads++
	raw := p.arr.Read(addr)
	lowMask := (uint64(1) << uint(p.lowBits)) - 1
	low := uint32(raw & lowMask)
	hi, st, _ := p.code.Decode(raw >> uint(p.lowBits))
	switch st {
	case ecc.Corrected:
		p.stats.Corrected++
	case ecc.DetectedUncorrectable:
		p.stats.Uncorrectable++
	}
	return low | uint32(hi)<<uint(p.lowBits), st == ecc.DetectedUncorrectable
}

// ReadBatch reads addr+i into dst[i]: raw low bits, decoded high bits,
// tallying decode outcomes exactly as per-word Read does, and flags the
// upper-half double errors in due when it is not nil.
func (p *PECC) ReadBatch(addr int, dst []uint32, due *DUESet, base int) {
	p.buf = growBuf(p.buf, len(dst))
	p.arr.ReadBatch(addr, p.buf)
	lb := uint(p.lowBits)
	lowMask := uint64(1)<<lb - 1
	// Park the raw low halves in dst while the codewords decode in
	// place, then weave the recovered high halves back in.
	for i, w := range p.buf {
		dst[i] = uint32(w & lowMask)
		p.buf[i] = w >> lb
	}
	p.sts = growStatusBuf(p.sts, len(dst))
	corrected, uncorrectable := p.code.DecodeBatch(p.buf, p.buf, p.sts)
	p.stats.Reads += uint64(len(dst))
	p.stats.Corrected += corrected
	p.stats.Uncorrectable += uncorrectable
	for i, hi := range p.buf {
		dst[i] |= uint32(hi) << lb
	}
	if due != nil && uncorrectable > 0 {
		flagDUEs(due, p.sts, base)
	}
}

// Write stores v at addr, encoding only the protected high bits.
func (p *PECC) Write(addr int, v uint32) {
	lowMask := (uint32(1) << uint(p.lowBits)) - 1
	cw := p.code.Encode(uint64(v >> uint(p.lowBits)))
	p.arr.Write(addr, uint64(v&lowMask)|cw<<uint(p.lowBits))
}

// ImageKey identifies the split raw/SECDED encode transform.
func (p *PECC) ImageKey() string { return p.key }

// EncodeImage fills img with the clean physical row images of src: raw
// low bits, codeword of the protected high bits shifted above them.
func (p *PECC) EncodeImage(img []uint64, src []uint32) {
	checkImageLen(img, src)
	lb := uint(p.lowBits)
	for i, v := range src {
		img[i] = uint64(v >> lb)
	}
	p.code.EncodeBatch(img, img)
	lowMask := uint64(1)<<lb - 1
	for i, v := range src {
		img[i] = uint64(v)&lowMask | img[i]<<lb
	}
}

// WriteImage stores precomputed row images at addr+i, subject to the
// array's stuck-at masks.
func (p *PECC) WriteImage(addr int, img []uint64) { p.arr.WriteBatch(addr, img) }

// ProtectedBits returns the number of protected most significant bits.
func (p *PECC) ProtectedBits() int { return DataWidth - p.lowBits }

// Words returns the address space size.
func (p *PECC) Words() int { return p.arr.Rows() }

// Stats returns the decode outcome counters.
func (p *PECC) Stats() Stats { return p.stats }

// Code returns the SECDED code protecting the upper half.
func (p *PECC) Code() *ecc.Code { return p.code }

// Array exposes the underlying physical array (38 columns) for fault
// studies.
func (p *PECC) Array() *sram.Array { return p.arr }

// flagDUEs sets due bit base+i for every detected-uncorrectable sts[i].
func flagDUEs(due *DUESet, sts []ecc.Status, base int) {
	for i, st := range sts {
		if st == ecc.DetectedUncorrectable {
			due.Set(base + i)
		}
	}
}

// growStatusBuf returns a length-n status scratch slice, reusing buf's
// storage when it is large enough.
func growStatusBuf(buf []ecc.Status, n int) []ecc.Status {
	if cap(buf) < n {
		return make([]ecc.Status, n)
	}
	return buf[:n]
}
