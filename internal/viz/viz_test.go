package viz

import (
	"bytes"
	"strings"
	"testing"

	"strippack/internal/geom"
)

func sidePacking(t *testing.T) *geom.Packing {
	t.Helper()
	in := geom.NewInstance(1, []geom.Rect{
		{Name: "left", W: 0.5, H: 1},
		{Name: "right", W: 0.5, H: 1},
	})
	p := geom.NewPacking(in)
	p.Set(0, 0, 0)
	p.Set(1, 0.5, 0)
	return p
}

func TestASCIIBasic(t *testing.T) {
	p := sidePacking(t)
	var buf bytes.Buffer
	if err := ASCII(&buf, p, 10, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // 4 rows + base line
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "0") || !strings.Contains(lines[0], "1") {
		t.Fatalf("glyphs missing:\n%s", out)
	}
	if !strings.Contains(lines[4], "height=1") {
		t.Fatalf("height caption missing:\n%s", out)
	}
	for _, row := range lines[:4] {
		if strings.Contains(row, ".") {
			t.Fatalf("full packing should have no empty cells:\n%s", out)
		}
	}
}

func TestASCIIEmptySpaceShown(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}})
	p := geom.NewPacking(in)
	p.Set(0, 0, 0)
	var buf bytes.Buffer
	if err := ASCII(&buf, p, 10, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ".") {
		t.Fatal("empty half not rendered as dots")
	}
}

func TestASCIIValidation(t *testing.T) {
	p := sidePacking(t)
	if err := ASCII(&bytes.Buffer{}, p, 0, 5); err == nil {
		t.Fatal("zero cols accepted")
	}
	if err := ASCII(&bytes.Buffer{}, p, 5, 0); err == nil {
		t.Fatal("zero rows accepted")
	}
}

func TestSVGWellFormed(t *testing.T) {
	p := sidePacking(t)
	var buf bytes.Buffer
	if err := SVG(&buf, p, 300); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatalf("not an svg:\n%s", out)
	}
	if strings.Count(out, "<rect") != 3 { // background + 2 rects
		t.Fatalf("rect count wrong:\n%s", out)
	}
	if !strings.Contains(out, "left") {
		t.Fatal("label missing")
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{Name: "a<b&c>", W: 1, H: 1}})
	p := geom.NewPacking(in)
	var buf bytes.Buffer
	if err := SVG(&buf, p, 300); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "a<b") {
		t.Fatal("label not escaped")
	}
	if !strings.Contains(buf.String(), "a&lt;b&amp;c&gt;") {
		t.Fatal("escaped label missing")
	}
}

func TestSVGValidation(t *testing.T) {
	if err := SVG(&bytes.Buffer{}, sidePacking(t), 5); err == nil {
		t.Fatal("tiny width accepted")
	}
}
