package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleOutsideUnitIntervalExitsTwo: a -scale outside (0, 1] is a usage
// error, not a silent full-scale run.
func TestScaleOutsideUnitIntervalExitsTwo(t *testing.T) {
	for _, scale := range []string{"0", "-1", "1.5", "NaN"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-experiment", "fig1", "-scale", scale}, &out, &errOut); code != 2 {
			t.Errorf("-scale %s: exit %d, want 2", scale, code)
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s: ran an experiment:\n%s", scale, out.String())
		}
		if !strings.Contains(errOut.String(), "-scale must be in (0, 1]") {
			t.Errorf("-scale %s: stderr %q does not name the flag", scale, errOut.String())
		}
	}
}

func TestRunsOneExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	dir := t.TempDir()
	if code := run([]string{"-experiment", "fig10", "-scale", "0.25", "-out", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Figure 10") || !strings.Contains(out.String(), "1 experiment(s)") {
		t.Errorf("output:\n%s", out.String())
	}
	if report, err := os.ReadFile(filepath.Join(dir, "fig10.txt")); err != nil || !strings.HasPrefix(out.String(), string(report)) {
		t.Errorf("-out report %q (%v) is not the start of stdout", report, err)
	}
	if code := run([]string{"-experiment", "fig2"}, &out, &errOut); code != 2 {
		t.Errorf("unknown experiment: exit %d, want 2", code)
	}
}

// TestHelpExitsZero: -h prints the flags and is not a usage error.
func TestHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "-experiment") {
		t.Errorf("-h: stdout %q, stderr %q; want the flags on stderr", out.String(), errOut.String())
	}
}
