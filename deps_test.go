package mbe_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestShippedCodeLinksNoTestHarness: the public library and the mbe,
// mbed and mbecoord binaries must not link the testing package or the
// test harnesses (internal/difftest, internal/faultinject). Production
// code compares runs through internal/digest instead.
func TestShippedCodeLinksNoTestHarness(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goBin, "list", "-f", `{{.ImportPath}} {{join .Deps " "}}`,
		".", "./cmd/mbe", "./cmd/mbed", "./cmd/mbecoord").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	forbidden := map[string]bool{"testing": true, "repro/internal/difftest": true, "repro/internal/faultinject": true}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 4 {
		t.Fatalf("go list printed %d packages, want 4:\n%s", len(lines), out)
	}
	for _, line := range lines {
		deps := strings.Fields(line)
		for _, dep := range deps[1:] {
			if forbidden[dep] {
				t.Errorf("%s links %s", deps[0], dep)
			}
		}
	}
}
