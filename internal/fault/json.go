package fault

import (
	"encoding/json"
	"fmt"
	"io"
)

// mapFile is the on-disk representation of a fault map: the die geometry
// plus the fault list, so tools can exchange BIST results.
type mapFile struct {
	Rows   int         `json:"rows"`
	Width  int         `json:"width"`
	Faults []jsonFault `json:"faults"`
}

type jsonFault struct {
	Row  int    `json:"row"`
	Col  int    `json:"col"`
	Kind string `json:"kind"`
}

// WriteJSON serializes the map with its geometry to w.
func (m Map) WriteJSON(w io.Writer, rows, width int) error {
	if err := m.Validate(rows, width); err != nil {
		return fmt.Errorf("fault: refusing to serialize invalid map: %w", err)
	}
	f := mapFile{Rows: rows, Width: width, Faults: make([]jsonFault, len(m))}
	for i, fv := range m {
		f.Faults[i] = jsonFault{Row: fv.Row, Col: fv.Col, Kind: fv.Kind.String()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
