// Package stats provides the small statistical and formatting helpers used
// by the benchmark harness: summaries of repeated measurements and aligned
// text tables in the layout cmd/experiments prints.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Summary holds aggregate statistics of a sample.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
	Geomean             float64
}

// Summarize computes a Summary; an empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	logSum := 0.0
	logOK := true
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		if x > 0 {
			logSum += math.Log(x)
		} else {
			logOK = false
		}
	}
	s.Mean /= float64(s.N)
	for _, x := range xs {
		d := x - s.Mean
		s.Std += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(s.Std / float64(s.N-1))
	} else {
		s.Std = 0
	}
	if logOK {
		s.Geomean = math.Exp(logSum / float64(s.N))
	}
	return s
}

// Table renders rows of cells as an aligned, pipe-separated text table with
// a header rule, e.g. for cmd/experiments output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; cells are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	writeRow := func(row []string) {
		parts := make([]string, cols)
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, " | "), " "))
	}
	writeRow(t.Header)
	rule := make([]string, cols)
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	writeRow(rule)
	for _, r := range t.Rows {
		writeRow(r)
	}
}
