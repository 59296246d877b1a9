package fpga

import (
	"fmt"
	"math"
	"math/bits"
)

// Per-task storage. Every task a scheduler was ever sent stays in its
// history, so this is most of what a long-running shard holds; DESIGN.md
// ("Per-task storage") gives the layout and the figures.

// chunkLen is the number of task records in one chunk. 256 records of 56
// bytes fill 14,336 bytes, which is exactly one of the Go allocator's
// size classes, so a chunk carries no allocator padding, and a shard's
// one partly filled chunk costs at most 14 KiB.
const chunkLen = 256

// maxColumns bounds Device.Columns so that a record's column fields fit
// in int32s. NewOnlineSchedulerAdmission, RunOnline and DecodeScheduler
// check it.
const maxColumns = math.MaxInt32

// checkColumns refuses a device too wide for a record's column fields.
func checkColumns(k int) error {
	if k > maxColumns {
		return fmt.Errorf("fpga: %d columns exceed the scheduler's bound of %d", k, maxColumns)
	}
	return nil
}

// Task record flags.
const (
	flagStarted uint8 = 1 << iota // occupancy begun (irrevocable)
	flagDone                      // completed
	flagShed                      // evicted by admission control
	flagInCand                    // queued in candQ (ReclaimCompact only)
)

// taskRec is everything the scheduler keeps per task. It holds no
// pointer, so the garbage collector never scans a chunk and a store into
// one takes no write barrier; the task's name, the one pointer a Task
// carries, lives in the store's side table.
type taskRec struct {
	id       int
	start    float64 // start time (includes reconfiguration)
	duration float64 // declared, truncated to the actual run on completion
	release  float64
	actual   float64 // registered lifetime; NaN = none
	firstCol int32
	cols     int32
	node     int32 // colIndex block base; -1 unless waiting under ReclaimCompact
	flags    uint8
}

// end returns start + duration, the same sum Task.End computes.
func (r *taskRec) end() float64 { return r.start + r.duration }

// task converts the record to its public form.
func (r *taskRec) task(name string) Task {
	t := Task{Name: name}
	r.fill(&t)
	return t
}

// fill writes the record's fields into t, all but the name. It stores no
// pointer, so filling a zeroed Task in a heap slice takes no write
// barrier: Snapshot and Schedule fill one per task of the history.
func (r *taskRec) fill(t *Task) {
	t.ID, t.FirstCol, t.Cols = r.id, int(r.firstCol), int(r.cols)
	t.Start, t.Duration, t.Release = r.start, r.duration, r.release
}

// taskChunk is a fixed block of records. Chunks are allocated whole and
// never copied or regrown, so a *taskRec stays valid for the store's
// lifetime.
type taskChunk [chunkLen]taskRec

// taskName is a side-table entry: the name of the task at index idx.
type taskName struct {
	idx  int
	name string
}

// taskStore is the scheduler's append-only task history: records in
// submission order (index == task index), the non-empty names, and an
// open-addressing index from task ID to task index.
type taskStore struct {
	chunks []*taskChunk
	n      int
	// names holds the non-empty names in increasing index order. Serving
	// traffic names no task, so it stays nil and allocates nothing.
	names []taskName
	// slots is the ID index: a power-of-two table with linear probing,
	// filled to at most 3/4. A slot is 0 when empty, else the ID's key
	// (indexKey) in the high 32 bits and its task index plus one in the
	// low 32 (the compaction arena already holds task indices in int32s).
	// There are no deletions: history is append-only.
	slots []uint64
	shift uint // 32 - log2(len(slots))
}

// minIndexSlots is the ID index's first table size.
const minIndexSlots = 8

// at returns task idx's record. The pointer stays valid: chunks never move.
func (s *taskStore) at(idx int) *taskRec {
	return &s.chunks[uint(idx)/chunkLen][uint(idx)%chunkLen]
}

// chunk returns chunk ci's filled records.
func (s *taskStore) chunk(ci int) []taskRec {
	return s.chunks[ci][:min(chunkLen, s.n-ci*chunkLen)]
}

// add appends a record with its name and files its ID in slot, which
// probe must have returned for that ID with no add in between. It returns
// the task's index.
func (s *taskStore) add(slot int, r taskRec, name string) int {
	idx := s.n
	if idx%chunkLen == 0 {
		s.chunks = append(s.chunks, new(taskChunk))
	}
	*s.at(idx) = r
	s.n++
	if name != "" {
		s.names = append(s.names, taskName{idx, name})
	}
	if slot < 0 { // the table is still unallocated
		s.rehash(minIndexSlots)
		slot, _ = s.probe(r.id)
	}
	s.slots[slot] = uint64(indexKey(r.id))<<32 | uint64(idx+1)
	if 4*s.n > 3*len(s.slots) {
		s.rehash(2 * len(s.slots))
	}
	return idx
}

// reserve sizes the empty store for n tasks: the chunk directory, and the
// ID index at the table size n adds would grow it to, so a caller that
// knows its task count (DecodeScheduler, RunOnline) pays no rehash.
func (s *taskStore) reserve(n int) {
	s.chunks = make([]*taskChunk, 0, (n+chunkLen-1)/chunkLen)
	size := minIndexSlots
	for 4*n > 3*size {
		size *= 2
	}
	s.rehash(size)
}

// fillTasks writes into dst, in submission order, every task whose flags
// share no bit with skip; dst must be zeroed and exactly that long. It
// stores a name only where one is set, so over an unnamed history it
// writes no pointer.
func (s *taskStore) fillTasks(dst []Task, skip uint8) {
	names := s.names
	k := 0
	for ci, c := range s.chunks {
		base := ci * chunkLen
		for j := range c[:min(chunkLen, s.n-base)] {
			r := &c[j]
			var name string
			if len(names) > 0 && names[0].idx == base+j {
				name, names = names[0].name, names[1:]
			}
			if r.flags&skip != 0 {
				continue
			}
			r.fill(&dst[k])
			if name != "" {
				dst[k].Name = name
			}
			k++
		}
	}
}

// indexKey folds an ID to the 32 bits the index hashes and tags a slot
// with. Distinct IDs can share a key; probe tells them apart by the
// record's ID.
func indexKey(id int) uint32 {
	u := uint64(id)
	return uint32(u) ^ uint32(u>>32)
}

// home returns key k's first slot: Fibonacci hashing, which spreads
// consecutive keys (fleet IDs are consecutive) evenly over the table.
func (s *taskStore) home(k uint32) int { return int((k * 0x9E3779B9) >> s.shift) }

// probe looks id up. It returns the slot id is filed in with its task
// index, or else the empty slot where a new entry for id goes with -1
// (slot -1 while the table is unallocated). The probe changes nothing, so
// a caller can look up first and fill the slot (add) only once it commits
// to the task.
func (s *taskStore) probe(id int) (slot, idx int) {
	if len(s.slots) == 0 {
		return -1, -1
	}
	k := indexKey(id)
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return i, -1
		}
		if uint32(e>>32) == k {
			if j := int(uint32(e)) - 1; s.at(j).id == id {
				return i, j
			}
		}
	}
}

// rehash moves the index into a fresh table of size slots (a power of
// two). A slot's key is all its home needs, so no record is read.
func (s *taskStore) rehash(size int) {
	old := s.slots
	s.slots = make([]uint64, size)
	s.shift = uint(32 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := s.home(uint32(e >> 32))
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}
