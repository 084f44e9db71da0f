package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A deleted experiment name fails cleanly: exit 1 and the valid names.
func TestUnknownExperiment(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-exp", "wire"}, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown experiment "wire"`) {
		t.Fatalf("stderr = %q", msg)
	}
	for _, e := range experiments {
		if !strings.Contains(msg, e.name) {
			t.Errorf("stderr does not list %q: %q", e.name, msg)
		}
	}
}

// -out is the one output flag: reports land in DIR/BENCH_<exp>.json.
// The report is written whether or not the suite passed — the gate on
// the phases themselves is internal/chaos's own tests.
func TestOutDirReceivesReport(t *testing.T) {
	dir := t.TempDir()
	var stderr bytes.Buffer
	if code := run([]string{"-exp", "chaos", "-out", dir}, &stderr); code > 1 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Phases []json.RawMessage `json:"phases"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("report has no phases")
	}
}
