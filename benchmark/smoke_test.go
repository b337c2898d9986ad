package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildGrowd compiles the server the svc-* workloads drive.
func buildGrowd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "growd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/growd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build growd: %v\n%s", err, out)
	}
	return bin
}

// Every workload, untraced and traced, on tiny data: each must check
// its answers clean and print exactly the metrics declared for that
// kind of run (emit refuses anything else).
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about half a second each")
	}
	growd := buildGrowd(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := &config{
				workload: name, seed: 5, seconds: 0.5, trace: traced, smoke: true,
				growdBin: growd, outDir: t.TempDir(), sz: smokeSizes,
			}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d", name, traced, out.attempted, out.failed)
			}
			if err := emit(cfg, out); err != nil {
				t.Errorf("%s trace=%t: %v", name, traced, err)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
}
