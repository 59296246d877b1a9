package geom

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// WriteInstance encodes the instance as indented JSON, the input format
// ReadInstance is checked against.
func WriteInstance(w io.Writer, in *Instance) error {
	ij := instanceJSON{Width: in.Width, Prec: in.Prec}
	for _, r := range in.Rects {
		ij.Rects = append(ij.Rects, rectJSON{Name: r.Name, W: r.W, H: r.H, Release: r.Release})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ij)
}

// ReadPacking decodes placements for the given instance, the reader
// WritePacking's output is checked with.
func ReadPacking(r io.Reader, in *Instance) (*Packing, error) {
	var pj packingJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("geom: decoding packing: %w", err)
	}
	if len(pj.Pos) != in.N() {
		return nil, fmt.Errorf("geom: packing has %d positions for %d rects", len(pj.Pos), in.N())
	}
	return &Packing{Instance: in, Pos: pj.Pos}, nil
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	in := NewInstance(1, []Rect{
		{Name: "dct", W: 0.5, H: 2, Release: 0.5},
		{Name: "quant", W: 0.25, H: 1},
	})
	in.AddEdge(0, 1)
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 2 || got.Rects[0].Name != "dct" || got.Rects[1].W != 0.25 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if len(got.Prec) != 1 || got.Prec[0] != [2]int{0, 1} {
		t.Fatalf("edges lost: %v", got.Prec)
	}
	if math.Abs(got.Rects[0].Release-0.5) > 1e-12 {
		t.Fatalf("release lost: %g", got.Rects[0].Release)
	}
}

func TestReadInstanceRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"rects":[{"w":0,"h":1}]}`,                  // zero width
		`{"rects":[{"w":2,"h":1}]}`,                  // wider than strip
		`{"rects":[{"w":0.5,"h":1}],"prec":[[0,9]]}`, // bad edge
		`{"rects":[{"w":0.5,"h":1}],"bogus":1}`,      // unknown field
		`not json`,
	}
	for _, c := range cases {
		if _, err := ReadInstance(strings.NewReader(c)); err == nil {
			t.Errorf("accepted invalid input %q", c)
		}
	}
}

func TestPackingJSONRoundTrip(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1}, {W: 0.5, H: 2}})
	p := NewPacking(in)
	p.Set(0, 0, 0)
	p.Set(1, 0.5, 0)
	var buf bytes.Buffer
	if err := WritePacking(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"height": 2`) {
		t.Fatalf("height missing from output: %s", buf.String())
	}
	got, err := ReadPacking(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos[1].X != 0.5 {
		t.Fatalf("positions lost: %+v", got.Pos)
	}
}

func TestReadPackingWrongLength(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1}})
	if _, err := ReadPacking(strings.NewReader(`{"height":1,"pos":[]}`), in); err == nil {
		t.Fatal("accepted packing with wrong position count")
	}
}
