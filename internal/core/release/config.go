package release

import (
	"fmt"
	"sort"

	"strippack/internal/geom"
)

// Config is a configuration in the paper's sense: a multiset of widths that
// fit side by side in the strip. Counts[i] is the multiplicity of the i-th
// distinct width.
type Config struct {
	Counts []int
	// TotalWidth caches the summed width of the multiset.
	TotalWidth float64
}

// EnumerateConfigs lists every non-empty configuration over the given
// distinct widths whose total is at most stripWidth. Widths must be sorted
// ascending. The count is exponential in stripWidth/min(width) — K in the
// paper — so maxConfigs caps the enumeration (0 means 1<<20).
func EnumerateConfigs(widths []float64, stripWidth float64, maxConfigs int) ([]Config, error) {
	if maxConfigs <= 0 {
		maxConfigs = 1 << 20
	}
	if !sort.Float64sAreSorted(widths) {
		return nil, fmt.Errorf("release: widths not sorted")
	}
	for _, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("release: non-positive width %g", w)
		}
	}
	// Counts slices are carved, capped, from arena chunks of configChunk
	// configurations (as cgSolve.carveCounts does), so an enumeration
	// allocates once per chunk instead of once per configuration.
	const configChunk = 256
	W := len(widths)
	var out []Config
	var arena []int
	counts := make([]int, W)
	var dfs func(i int, remaining float64) error
	dfs = func(i int, remaining float64) error {
		if i == W {
			// Emit if non-empty.
			for _, c := range counts {
				if c > 0 {
					if len(out) >= maxConfigs {
						return fmt.Errorf("release: more than %d configurations; increase epsilon or reduce K", maxConfigs)
					}
					if len(arena) < W {
						arena = make([]int, configChunk*W)
					}
					cc := Config{Counts: arena[:W:W], TotalWidth: stripWidth - remaining}
					arena = arena[W:]
					copy(cc.Counts, counts)
					out = append(out, cc)
					break
				}
			}
			return nil
		}
		// Try multiplicities 0,1,2,... of widths[i].
		max := int((remaining + geom.Eps) / widths[i])
		for c := 0; c <= max; c++ {
			counts[i] = c
			if err := dfs(i+1, remaining-float64(c)*widths[i]); err != nil {
				return err
			}
		}
		counts[i] = 0
		return nil
	}
	if err := dfs(0, stripWidth); err != nil {
		return nil, err
	}
	return out, nil
}

// Items returns the total number of rectangles in the configuration.
func (c Config) Items() int {
	n := 0
	for _, k := range c.Counts {
		n += k
	}
	return n
}

// CountConfigs returns only the number of configurations (used by the
// LP-scaling experiment E7 without allocating them all). When the widths
// share a common unit (FPGA columns), the count is memoized on
// (width index, remaining capacity in units) — an O(W·L) dynamic program
// instead of the exponential recursion, which lets E7 sweep K far past the
// enumeration's practical cap. Continuous widths fall back to the
// recursion.
func CountConfigs(widths []float64, stripWidth float64) int {
	if wu, L, ok := quantizeWidths(stripWidth, widths); ok {
		// cur[u] starts as N(W, u) = 1 (the empty configuration) and after
		// processing width i holds N(i, u) = N(i+1, u) + N(i, u-wu[i]):
		// the multisets over widths[i:] fitting in u units.
		cur := make([]int, L+1)
		for u := range cur {
			cur[u] = 1
		}
		for i := len(widths) - 1; i >= 0; i-- {
			w := int(wu[i])
			for u := w; u <= L; u++ {
				cur[u] += cur[u-w]
			}
		}
		return cur[L] - 1
	}
	var rec func(i int, remaining float64) int
	rec = func(i int, remaining float64) int {
		if i == len(widths) {
			return 1
		}
		total := 0
		max := int((remaining + geom.Eps) / widths[i])
		for c := 0; c <= max; c++ {
			total += rec(i+1, remaining-float64(c)*widths[i])
		}
		return total
	}
	// Subtract the empty configuration.
	return rec(0, stripWidth) - 1
}
