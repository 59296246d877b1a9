package experiments

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenSkip, when set, is why this build cannot reproduce the golden
// tables bit for bit (fma_test.go sets it for GOAMD64 v3 and up).
var goldenSkip string

// TestTablesGolden pins the paper's reproduction: RunAll, the default
// output of cmd/experiments, must equal testdata/tables.golden byte for
// byte. The tables are float results printed to three decimals, so the
// pin holds where the float operations round as they did when the file
// was written: amd64 without fused multiply-adds.
func TestTablesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden tables were written on amd64; on %s the compiler may fuse multiply-adds", runtime.GOARCH)
	}
	if goldenSkip != "" {
		t.Skip(goldenSkip)
	}
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "(end of output)"
		}
		t.Fatalf("tables differ from testdata/tables.golden at line %d:\n got: %s\nwant: %s\n"+
			"If the change is intended, regenerate the file from the repository root with\n"+
			"\tgo run ./cmd/experiments > internal/experiments/testdata/tables.golden\n"+
			"and say in the change why the tables moved.", i+1, line(gl), line(wl))
	}
}
