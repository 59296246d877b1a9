package geom

import (
	"encoding/json"
	"fmt"
	"io"
)

// instanceJSON is the on-disk format accepted by the CLI tools.
type instanceJSON struct {
	Width float64    `json:"width,omitempty"`
	Rects []rectJSON `json:"rects"`
	Prec  [][2]int   `json:"prec,omitempty"`
}

type rectJSON struct {
	Name    string  `json:"name,omitempty"`
	W       float64 `json:"w"`
	H       float64 `json:"h"`
	Release float64 `json:"release,omitempty"`
}

// ReadInstance decodes an instance from JSON and validates it.
func ReadInstance(r io.Reader) (*Instance, error) {
	var ij instanceJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ij); err != nil {
		return nil, fmt.Errorf("geom: decoding instance: %w", err)
	}
	rects := make([]Rect, len(ij.Rects))
	for i, rj := range ij.Rects {
		rects[i] = Rect{Name: rj.Name, W: rj.W, H: rj.H, Release: rj.Release}
	}
	in := NewInstance(ij.Width, rects)
	in.Prec = ij.Prec
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// packingJSON is the CLI output format: positions aligned with rects.
type packingJSON struct {
	Height float64     `json:"height"`
	Pos    []Placement `json:"pos"`
}

// WritePacking encodes placements and the achieved height as JSON.
func WritePacking(w io.Writer, p *Packing) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(packingJSON{Height: p.Height(), Pos: p.Pos})
}
