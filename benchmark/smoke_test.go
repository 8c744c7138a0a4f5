package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// TestSmoke runs every workload and the ladder at smoke size against a real
// sealserver built from this checkout, and holds the names the run produced
// to the names BENCHMARK.json lists — exactly, in both directions, so a metric
// or workload renamed on either side fails here rather than at the driver.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is not on PATH: cannot build sealserver")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildServer("..", dir)
	if err != nil {
		t.Fatal(err)
	}

	var listed, specWorkloads, codeWorkloads []string
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		listed = append(listed, m.Name)
	}
	sort.Strings(listed)
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.name)
	}
	if !slices.Equal(specWorkloads, codeWorkloads) {
		t.Fatalf("workloads: BENCHMARK.json lists %v, the benchmark runs %v", specWorkloads, codeWorkloads)
	}

	cfg := &config{serverBin: bin, workDir: dir, seed: 42}
	cfg.smoke()
	for _, w := range workloads {
		res, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: correct=%v, failed %d of %d: %v", w.name, res.correct, res.failed, res.attempted, res.notes)
		}
		var measured []string
		for name := range res.metrics {
			measured = append(measured, name)
		}
		sort.Strings(measured)
		if !slices.Equal(measured, listed) {
			t.Errorf("%s: measured metrics\n%v\ndiffer from BENCHMARK.json's\n%v", w.name, measured, listed)
		}
		for _, ms := range sp.EndToEnd {
			if res.metrics[ms.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, ms.Name, res.metrics[ms.Name])
			}
		}
	}

	spansFile := filepath.Join(dir, "spans.jsonl")
	if err := cfg.spans.writeFile(spansFile); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spansFile)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"client.roundtrip", "server.handler", "lib.query_traced", "lib.query", "engine.filter", "engine.verify"} {
		if !names[want] {
			t.Errorf("spans.jsonl holds no %q span", want)
		}
	}
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the driver
// refuses a file for, before a single run is spent on it.
func TestSpecWithinContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Errorf("top-level keys %v, want %v", keys, want)
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setupBound, maxBound := -1.0, 0.0
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and better lower, got %q %q", m.Unit, m.Better)
			}
		}
	}
	if setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
}
