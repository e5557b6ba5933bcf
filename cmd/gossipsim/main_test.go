// Smoke tests: the CLI builds, parses its flags, and drives one tiny
// simulation end to end (including the checkpoint/resume round trip).
package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gossipsim")
	out, err := exec.Command("go", "build", "-o", path, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building gossipsim: %v\n%s", err, out)
	}
	return path
}

func TestSmokeAnalyze(t *testing.T) {
	tool := buildTool(t)
	out, err := exec.Command(tool,
		"-topology", "debruijn", "-degree", "2", "-diameter", "4",
		"-protocol", "periodic-half").CombinedOutput()
	if err != nil {
		t.Fatalf("gossipsim failed: %v\n%s", err, out)
	}
	for _, want := range []string{"network:", "measured:", "Theorem 4.1 respected: true"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeCheckpointResume(t *testing.T) {
	tool := buildTool(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt.json")
	out, err := exec.Command(tool,
		"-topology", "debruijn", "-degree", "2", "-diameter", "4",
		"-protocol", "periodic-half", "-budget", "5", "-checkpoint", ckpt).CombinedOutput()
	if err != nil {
		t.Fatalf("budget-capped run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "incomplete:") {
		t.Fatalf("capped run did not report incomplete:\n%s", out)
	}
	out, err = exec.Command(tool,
		"-topology", "debruijn", "-degree", "2", "-diameter", "4",
		"-protocol", "periodic-half", "-budget", "100000", "-resume", ckpt).CombinedOutput()
	if err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"resumed:", "measured:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("resumed output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeScenario(t *testing.T) {
	tool := buildTool(t)
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(tool, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("gossipsim %v failed: %v\n%s", args, err, out)
		}
		return string(out)
	}
	args := []string{
		"-topology", "debruijn", "-degree", "2", "-diameter", "4",
		"-protocol", "periodic-half",
		"-loss", "0.1", "-crash", "1@0-3", "-delete", "0>1",
		"-seed", "7", "-trials", "16",
	}
	out := run(args...)
	for _, want := range []string{
		"scenario:   loss=0.1;crash=1@0-3;del=0>1;seed=7",
		"trials:     16 (16 completed",
		"respected by median: true",
		"drift:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario output missing %q:\n%s", want, out)
		}
	}
	// Same seed, same distribution — the replay line pins the fingerprint.
	if again := run(args...); again != out {
		t.Errorf("identical seeds diverged:\n%s\nvs\n%s", out, again)
	}
}

func TestSmokeScenarioBadSpecs(t *testing.T) {
	tool := buildTool(t)
	for _, tc := range [][]string{
		{"-crash", "nope"},
		{"-delete", "3-4"},
		{"-loss", "0.1", "-checkpoint", "x.json"},
	} {
		args := append([]string{"-topology", "debruijn", "-degree", "2", "-diameter", "4",
			"-protocol", "periodic-half"}, tc...)
		if out, err := exec.Command(tool, args...).CombinedOutput(); err == nil {
			t.Errorf("%v accepted:\n%s", tc, out)
		}
	}
}

func TestSmokeBadFlags(t *testing.T) {
	tool := buildTool(t)
	out, err := exec.Command(tool, "-topology", "mobius").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown topology accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown topology") {
		t.Errorf("error message unhelpful:\n%s", out)
	}
}

// TestSmokeImplicit pins the scale demo on a materialized hypercube: the
// scan and the generator-program simulation both stream over the network's
// generator, and everything but timings and memory is fixed output.
func TestSmokeImplicit(t *testing.T) {
	tool := buildTool(t)
	out, err := exec.Command(tool,
		"-topology", "hypercube", "-dimension", "10", "-implicit",
		"-protocol", "hypercube").CombinedOutput()
	if err != nil {
		t.Fatalf("gossipsim -implicit failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"network:    hypercube (n=1024, implicit=false, streaming generator kernel)\n",
		"rounds:     worst=10 (source 0) best=10 (source 0) mean=10.00\n",
		"protocol:   hypercube (full-duplex mode, period 10) as generator program a7586d2d8529e7c7\n",
		"simulated:  broadcast from source 0 in 10 rounds ≥ certified bound 10 (",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
