package service

import (
	"bytes"
	"io"
	"testing"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
)

// submitPayload encodes an opSubmit request body for tenant ti.
func submitPayload(ti int, specs []fpga.TaskSpec) []byte {
	var e enc
	e.op(opSubmit)
	e.int(ti)
	e.count(len(specs))
	for i := range specs {
		e.taskSpec(&specs[i])
	}
	return e.b
}

// fixedPlacer answers every submit with the same placements, so a
// benchmark through it times the server alone.
type fixedPlacer struct {
	stubPlacer
	placed []fleet.Placement
}

func (p fixedPlacer) Submit(int, []fpga.TaskSpec) ([]fleet.Placement, error) {
	return p.placed, nil
}

// frameSource is a connection that delivers the same request frame n
// times, then EOF, and discards whatever is written to it.
type frameSource struct {
	frame  []byte
	n, off int
}

func (fs *frameSource) Read(p []byte) (int, error) {
	if fs.n == 0 {
		return 0, io.EOF
	}
	k := copy(p, fs.frame[fs.off:])
	if fs.off += k; fs.off == len(fs.frame) {
		fs.off = 0
		fs.n--
	}
	return k, nil
}

func (fs *frameSource) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServerSubmitFrame times the server's side of one 1024-spec
// submit on a long-lived connection: reading the frame, decoding its
// specs, and encoding and writing 1024 placements. The Placer is a stub
// that returns fixed placements and the connection is in memory, so
// neither fleet work nor transport is timed.
func BenchmarkServerSubmitFrame(b *testing.B) {
	specs := fleet.Specs(churnTrace(b, 3, 1024, 16, 0.8*64), 0)
	placed := make([]fleet.Placement, len(specs))
	for i, sp := range specs {
		placed[i] = fleet.Placement{Shard: i % 64, Task: fpga.Task{ID: sp.ID, FirstCol: i % 8,
			Cols: sp.Cols, Start: sp.Release + 0.25, Duration: sp.Duration, Release: sp.Release}}
	}
	var frame bytes.Buffer
	if err := writeFrame(&frame, submitPayload(0, specs)); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(fixedPlacer{placed: placed})
	b.ReportAllocs()
	b.SetBytes(int64(frame.Len()))
	b.ResetTimer()
	if err := srv.Serve(&frameSource{frame: frame.Bytes(), n: b.N}); err != nil {
		b.Fatal(err)
	}
}
