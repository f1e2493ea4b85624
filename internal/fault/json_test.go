package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"faultmem/internal/stats"
)

func TestJSONRoundTrip(t *testing.T) {
	rng := stats.NewRand(1)
	orig := RandomKinds(rng, GenerateCount(rng, 64, 32, 17, Flip),
		[]Kind{Flip, StuckAt0, StuckAt1})
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf, 64, 32); err != nil {
		t.Fatal(err)
	}
	back, rows, width, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 64 || width != 32 {
		t.Errorf("geometry %dx%d", rows, width)
	}
	if len(back) != len(orig) {
		t.Fatalf("length %d != %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("entry %d: %+v != %+v", i, back[i], orig[i])
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	// Out-of-range fault refuses to serialize.
	bad := Map{{Row: 99, Col: 0}}
	if err := bad.WriteJSON(&bytes.Buffer{}, 4, 32); err == nil {
		t.Error("invalid map serialized")
	}
	// Unknown kind refuses to parse.
	_, _, _, err := readJSON(strings.NewReader(
		`{"rows":4,"width":32,"faults":[{"row":0,"col":0,"kind":"weird"}]}`))
	if err == nil {
		t.Error("unknown kind accepted")
	}
	// Out-of-range entry refuses to parse.
	_, _, _, err = readJSON(strings.NewReader(
		`{"rows":4,"width":32,"faults":[{"row":9,"col":0,"kind":"flip"}]}`))
	if err == nil {
		t.Error("out-of-range entry accepted")
	}
	// Garbage input.
	if _, _, _, err := readJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestJSONEmptyMap(t *testing.T) {
	var buf bytes.Buffer
	if err := (Map{}).WriteJSON(&buf, 8, 16); err != nil {
		t.Fatal(err)
	}
	m, rows, width, err := readJSON(&buf)
	if err != nil || len(m) != 0 || rows != 8 || width != 16 {
		t.Errorf("empty round trip: %v %d %dx%d", err, len(m), rows, width)
	}
}

// readJSON deserializes a fault map and its geometry from r, validating
// bounds and kinds: the reader half of WriteJSON.
func readJSON(r io.Reader) (m Map, rows, width int, err error) {
	var f mapFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, 0, 0, fmt.Errorf("fault: bad JSON: %w", err)
	}
	m = make(Map, len(f.Faults))
	for i, jf := range f.Faults {
		var kind Kind
		switch jf.Kind {
		case "flip":
			kind = Flip
		case "sa0":
			kind = StuckAt0
		case "sa1":
			kind = StuckAt1
		default:
			return nil, 0, 0, fmt.Errorf("fault: unknown kind %q at entry %d", jf.Kind, i)
		}
		m[i] = Fault{Row: jf.Row, Col: jf.Col, Kind: kind}
	}
	if err := m.Validate(f.Rows, f.Width); err != nil {
		return nil, 0, 0, err
	}
	return m, f.Rows, f.Width, nil
}
