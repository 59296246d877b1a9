// Package viz renders packings for humans: a terminal-friendly ASCII grid
// and a standalone SVG. Both are pure functions of a validated packing and
// are used by the CLI's -viz flag and the examples.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"

	"strippack/internal/geom"
)

// asciiGlyphs label rectangles in rotation; index by rect ID.
const asciiGlyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// ASCII renders the packing as a character grid of the given dimensions
// (cols across the strip width, rows across the packing height, bottom row
// last so the strip reads top-down like the strip grows upward). Cells
// covered by rectangle i show its glyph; empty cells show '.'.
func ASCII(w io.Writer, p *geom.Packing, cols, rows int) error {
	if cols < 1 || rows < 1 {
		return fmt.Errorf("viz: grid %dx%d invalid", cols, rows)
	}
	in := p.Instance
	width := in.StripWidth()
	height := p.Height()
	if height <= 0 {
		height = 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(".", cols))
	}
	for i, r := range in.Rects {
		glyph := asciiGlyphs[i%len(asciiGlyphs)]
		x0 := int(math.Floor(p.Pos[i].X / width * float64(cols)))
		x1 := int(math.Ceil((p.Pos[i].X + r.W) / width * float64(cols)))
		y0 := int(math.Floor(p.Pos[i].Y / height * float64(rows)))
		y1 := int(math.Ceil((p.Pos[i].Y + r.H) / height * float64(rows)))
		if x1 > cols {
			x1 = cols
		}
		if y1 > rows {
			y1 = rows
		}
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				grid[y][x] = glyph
			}
		}
	}
	// Print top row first: row index rows-1 is the top of the packing.
	for r := rows - 1; r >= 0; r-- {
		if _, err := fmt.Fprintf(w, "|%s|\n", grid[r]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "+%s+ height=%.3f\n", strings.Repeat("-", cols), p.Height())
	return err
}

// svgPalette cycles fill colors.
var svgPalette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// SVG writes a standalone SVG of the packing, pixelWidth wide, with the
// vertical axis flipped so the strip base is at the bottom. Rectangle names
// (or IDs) are drawn when they fit.
func SVG(w io.Writer, p *geom.Packing, pixelWidth int) error {
	if pixelWidth < 10 {
		return fmt.Errorf("viz: pixel width %d too small", pixelWidth)
	}
	in := p.Instance
	width := in.StripWidth()
	height := p.Height()
	if height <= 0 {
		height = 1
	}
	scale := float64(pixelWidth) / width
	ph := height * scale
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%.0f" viewBox="0 0 %d %.0f">`+"\n",
		pixelWidth, ph, pixelWidth, ph)
	fmt.Fprintf(w, `<rect x="0" y="0" width="%d" height="%.0f" fill="#f7f7f7" stroke="#333"/>`+"\n", pixelWidth, ph)
	for i, r := range in.Rects {
		x := p.Pos[i].X * scale
		// Flip: SVG y grows downward.
		y := ph - (p.Pos[i].Y+r.H)*scale
		fmt.Fprintf(w, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="0.8" stroke="#222" stroke-width="0.5"/>`+"\n",
			x, y, r.W*scale, r.H*scale, svgPalette[i%len(svgPalette)])
		label := r.Name
		if label == "" {
			label = fmt.Sprintf("%d", i)
		}
		if r.W*scale > 14 && r.H*scale > 10 {
			fmt.Fprintf(w, `<text x="%.2f" y="%.2f" font-size="9" font-family="sans-serif" fill="#111">%s</text>`+"\n",
				x+2, y+10, escape(label))
		}
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
