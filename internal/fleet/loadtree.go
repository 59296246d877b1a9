package fleet

import "math"

// loadTree is a lane's least-loaded index: a tournament tree over the lane
// shards' drain-time scores. Each node holds the winner of its subtree —
// the lowest score, ties to the lowest shard index, exactly the pick of a
// left-to-right scan — and the fewest and most columns of any shard under
// it. A query for a task of width w takes a subtree's winner whole when
// every shard under it is wide enough, skips the subtree when none is, and
// descends only along the boundary between the two; on a homogeneous lane
// the root answers every query. Routing a task raises one score and
// replays the matches on that leaf's path to the root, O(log S); the batch
// barrier rebuilds every match, O(S).
//
// Nodes are stored 1-based in heap order: node v has children 2v and
// 2v+1, and the leaves sit at [size, 2·size), padded past the lane's last
// shard with leaves that lose every match and that no task fits.
type loadTree struct {
	score  []float64 // per lane shard
	size   int       // leaf slots: the smallest power of two >= len(score)
	node   []match   // per node: the subtree's winner
	lo, hi []int     // per node: fewest and most columns under it
	// nan records that some score is NaN, which only a spec with a
	// non-finite duration produces (its shard then rejects it). A scan
	// keeps its first eligible shard when that shard's score is NaN,
	// because nothing compares below NaN; least reproduces that.
	nan bool
}

// match is a subtree's winner: its lane-local index and rank.
type match struct {
	rank uint64
	win  int32 // -1 for an all-padding subtree
}

const (
	nanRank = math.MaxUint64 - 1 // a NaN score: above every number
	padRank = math.MaxUint64     // a padding leaf: loses to every shard
)

// rank maps a score to a key whose unsigned order is the scan's order:
// numbers by value, with -0 equal to +0, then NaN. A match then goes to
// the right-hand side only on a strictly lower rank, which sends ties to
// the lower shard index.
func rank(s float64) uint64 {
	if s != s {
		return nanRank
	}
	if s == 0 {
		s = 0 // folds -0 into +0
	}
	b := math.Float64bits(s)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// play returns the winner of a match between a and b, b being the
// right-hand subtree. Written as a conditional assignment so the compiler
// can select without a branch: match outcomes are close to random.
func play(a, b match) match {
	if b.rank < a.rank {
		a = b
	}
	return a
}

// rebuild recomputes every match from the current scores; cols are the
// lane shards' column counts, which never change, so the column bounds
// are built only on first use.
func (lt *loadTree) rebuild(cols []int) {
	n := len(lt.score)
	if lt.node == nil {
		lt.size = 1
		for lt.size < n {
			lt.size <<= 1
		}
		lt.node = make([]match, 2*lt.size)
		lt.lo = make([]int, 2*lt.size)
		lt.hi = make([]int, 2*lt.size)
		for j := 0; j < lt.size; j++ {
			v := lt.size + j
			lt.node[v], lt.lo[v], lt.hi[v] = match{padRank, -1}, math.MaxInt, math.MinInt
			if j < n {
				lt.node[v].win, lt.lo[v], lt.hi[v] = int32(j), cols[j], cols[j]
			}
		}
		for v := lt.size - 1; v >= 1; v-- {
			lt.lo[v] = min(lt.lo[2*v], lt.lo[2*v+1])
			lt.hi[v] = max(lt.hi[2*v], lt.hi[2*v+1])
		}
	}
	lt.nan = false
	for j, s := range lt.score {
		lt.node[lt.size+j].rank = rank(s)
		lt.nan = lt.nan || s != s
	}
	for v := lt.size - 1; v >= 1; v-- {
		lt.node[v] = play(lt.node[2*v], lt.node[2*v+1])
	}
}

// add raises shard j's score by d, re-ranks its leaf and replays the
// matches on the leaf's path to the root.
func (lt *loadTree) add(j int, d float64) {
	lt.score[j] += d
	s := lt.score[j]
	lt.nan = lt.nan || s != s
	v := lt.size + j
	lt.node[v].rank = rank(s)
	for v >>= 1; v >= 1; v >>= 1 {
		lt.node[v] = play(lt.node[2*v], lt.node[2*v+1])
	}
}

// least returns the lane-local shard that a left-to-right scan for the
// lowest score among shards with at least w columns picks (ties to the
// lowest index), or -1 when no shard is that wide.
func (lt *loadTree) least(w int) int {
	m := lt.query(1, w)
	if m.win < 0 {
		return -1
	}
	if lt.nan && m.rank != nanRank {
		if f := lt.first(w); lt.score[f] != lt.score[f] {
			return f
		}
	}
	return int(m.win)
}

func (lt *loadTree) query(v, w int) match {
	switch {
	case lt.hi[v] < w:
		return match{padRank, -1}
	case lt.lo[v] >= w:
		return lt.node[v]
	}
	return play(lt.query(2*v, w), lt.query(2*v+1, w))
}

// first returns the lowest-index shard with at least w columns, or -1.
func (lt *loadTree) first(w int) int {
	if lt.hi[1] < w {
		return -1
	}
	v := 1
	for v < lt.size {
		v *= 2
		if lt.hi[v] < w {
			v++
		}
	}
	return v - lt.size
}
