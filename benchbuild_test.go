package cedarfs

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkHarnessBuilds vets the benchmark harness, which is a module of
// its own (benchmarks/, built against this one through `replace repro =>
// ../`) and so outside `go test ./...`. A deleted or renamed API that
// fsdbench names would otherwise stop the benchmark before it measures
// anything.
func TestBenchmarkHarnessBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on the PATH")
	}
	cmd := exec.Command(goBin, "vet", "./fsdbench")
	cmd.Dir = "benchmarks"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./fsdbench in benchmarks/: %v\n%s", err, out)
	}
}
