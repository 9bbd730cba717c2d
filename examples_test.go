// Examples smoke test: every examples/*/main.go builds and exits 0, so
// the checks the examples make on their own results run under go test.
package repro_test

import (
	"os/exec"
	"path/filepath"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	for _, main := range mains {
		dir := filepath.Dir(main)
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command("go", "build", "-o", exe, "./"+dir).CombinedOutput(); err != nil {
				t.Fatalf("go build ./%s: %v\n%s", dir, err, out)
			}
			cmd := exec.Command(exe)
			cmd.Dir = t.TempDir()
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
		})
	}
}
