package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestManifestIsGenerated holds BENCHMARK.json to what -manifest prints, so
// the file cannot drift from the tables the program reports from, and holds
// the tables to the limits the driver sets.
func TestManifestIsGenerated(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifestJSON()) {
		t.Errorf("BENCHMARK.json differs from the tables: regenerate it with -manifest")
	}
	var m manifest
	if err := json.Unmarshal(manifestJSON(), &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if n := len(w.Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, n)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Abs {
			t.Errorf("end-to-end metric %s: bound %v", d.Name, d.Bound)
		}
	}
}
