//go:build amd64.v3

package experiments

func init() {
	goldenSkip = "GOAMD64 v3 or higher: the compiler may fuse multiply-adds, so the golden tables need not reproduce"
}
