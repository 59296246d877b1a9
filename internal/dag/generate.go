package dag

import (
	"math/rand"
)

// RandomLayered generates a layered DAG: vertices are split into `layers`
// consecutive groups and each vertex gets edges from a random subset of the
// previous layer with probability p. Layered DAGs model synchronous task
// graphs (image-processing pipelines with fan-out).
func RandomLayered(rng *rand.Rand, n, layers int, p float64) *Graph {
	if layers < 1 {
		layers = 1
	}
	g := New(n)
	// Assign vertices to layers round-robin so every layer is non-empty for
	// n >= layers.
	layerOf := make([]int, n)
	for v := 0; v < n; v++ {
		layerOf[v] = v * layers / n
	}
	byLayer := make([][]int, layers)
	for v := 0; v < n; v++ {
		byLayer[layerOf[v]] = append(byLayer[layerOf[v]], v)
	}
	for l := 1; l < layers; l++ {
		for _, v := range byLayer[l] {
			linked := false
			for _, u := range byLayer[l-1] {
				if rng.Float64() < p {
					_ = g.AddEdge(u, v)
					linked = true
				}
			}
			// Keep the graph layered even when the coin never lands: attach
			// to one random predecessor.
			if !linked && len(byLayer[l-1]) > 0 {
				u := byLayer[l-1][rng.Intn(len(byLayer[l-1]))]
				_ = g.AddEdge(u, v)
			}
		}
	}
	return g
}

// RandomOrdered generates a DAG by sampling each forward pair (i<j) with
// probability p. This is the Erdős–Rényi analogue for DAGs.
func RandomOrdered(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				_ = g.AddEdge(i, j)
			}
		}
	}
	return g
}

// JPEGPipeline returns a task graph shaped like a JPEG encoder operating on
// `blocks` independent macroblock groups: per block the stages
// colorspace -> DCT -> quantize -> zigzag feed into a shared entropy-coding
// chain. This mirrors the image-processing motivation in the paper's
// introduction. Vertex count: 4*blocks + 2 (header source + entropy sink).
func JPEGPipeline(blocks int) *Graph {
	n := 4*blocks + 2
	g := New(n)
	header := 0
	entropy := n - 1
	for b := 0; b < blocks; b++ {
		cs := 1 + 4*b
		dct := cs + 1
		q := cs + 2
		zz := cs + 3
		_ = g.AddEdge(header, cs)
		_ = g.AddEdge(cs, dct)
		_ = g.AddEdge(dct, q)
		_ = g.AddEdge(q, zz)
		_ = g.AddEdge(zz, entropy)
	}
	return g
}
