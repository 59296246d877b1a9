package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %g, want %g", s.Std, want)
	}
	wantG := math.Pow(24, 0.25)
	if math.Abs(s.Geomean-wantG) > 1e-12 {
		t.Fatalf("geomean = %g, want %g", s.Geomean, wantG)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single: %+v", s)
	}
}

func TestSummarizeNonPositiveGeomean(t *testing.T) {
	s := Summarize([]float64{-1, 2})
	if s.Geomean != 0 {
		t.Fatalf("geomean should be 0 with non-positive values, got %g", s.Geomean)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Header: []string{"n", "ratio"}}
	tb.Add(16, 1.25)
	tb.Add(4096, 2.0)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "ratio") || !strings.Contains(lines[1], "---") {
		t.Fatalf("header/rule malformed:\n%s", out)
	}
	if !strings.Contains(lines[2], "1.250") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	// Alignment: all rows have the same pipe positions.
	p0 := strings.Index(lines[0], "|")
	for _, l := range lines[1:] {
		if strings.Index(l, "|") != p0 {
			t.Fatalf("misaligned table:\n%s", out)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := &Table{Header: []string{"a"}}
	tb.Add("x", "extra")
	var buf bytes.Buffer
	tb.Render(&buf)
	if !strings.Contains(buf.String(), "extra") {
		t.Fatal("extra cell dropped")
	}
}
