package engine

// Crash-and-recover property test for SaveSegments: interrupting the save at
// every injected I/O step — with and without torn writes — must leave a
// directory that either boots the previous complete generation or reads as
// ErrNoSegments (rebuild), and a rebuild over the debris must always produce
// bit-identical answers. No failure point may yield a directory that opens
// but mis-answers, and none may yield an unrecoverable error class.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/faultfs"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// crashQueries builds a deterministic query mix for answer comparison.
func crashQueries(t *testing.T, ds *model.Dataset, n int) []*model.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	qs := make([]*model.Query, n)
	for i := range qs {
		x, y := rng.Float64()*80, rng.Float64()*80
		q, err := ds.NewQuery(geo.Rect{MinX: x, MinY: y, MaxX: x + 25, MaxY: y + 25},
			[]string{fmt.Sprintf("t%d", rng.Intn(20)), fmt.Sprintf("t%d", rng.Intn(20))},
			0.02, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// expectEngineAnswers compares e's answers to want on every query, exactly.
func expectEngineAnswers(t *testing.T, label string, e *Engine, queries []*model.Query, want [][]core.Match) {
	t.Helper()
	for qi, q := range queries {
		got, _, err := e.Search(context.Background(), q, Options{})
		if err != nil {
			t.Fatalf("%s query %d: %v", label, qi, err)
		}
		if len(got) != len(want[qi]) {
			t.Fatalf("%s query %d: %d matches, want %d", label, qi, len(got), len(want[qi]))
		}
		for j := range want[qi] {
			if got[j] != want[qi][j] {
				t.Fatalf("%s query %d match %d: %+v, want %+v", label, qi, j, got[j], want[qi][j])
			}
		}
	}
}

// sampleSteps picks the failure points to replay: every step when the save is
// small, otherwise both tails (where the structural transitions live) plus a
// stride through the bulk writes.
func sampleSteps(total int) []int {
	if total <= 160 {
		ks := make([]int, total)
		for i := range ks {
			ks[i] = i + 1
		}
		return ks
	}
	seen := make(map[int]bool)
	var ks []int
	add := func(k int) {
		if k >= 1 && k <= total && !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	for k := 1; k <= 40; k++ {
		add(k)
	}
	for k := total - 40; k <= total; k++ {
		add(k)
	}
	stride := (total - 80) / 80
	if stride < 1 {
		stride = 1
	}
	for k := 41; k < total-40; k += stride {
		add(k)
	}
	return ks
}

// bootAfterCrash asserts the recovery invariant for one interrupted save and
// returns an engine serving correct answers (reopening after a rebuild when
// the directory read as incomplete).
func bootAfterCrash(t *testing.T, label, dir string, src *Engine) *Engine {
	t.Helper()
	e2, _, err := OpenSegmentsWith(dir, nil, OpenOptions{})
	if err == nil {
		return e2
	}
	if !errors.Is(err, ErrNoSegments) {
		t.Fatalf("%s: open after interrupted save failed with %v, want ErrNoSegments (rebuild signal)", label, err)
	}
	// The boot-side contract: an incomplete directory is rebuilt in place.
	if err := src.SaveSegments(dir); err != nil {
		t.Fatalf("%s: rebuild over crash debris: %v", label, err)
	}
	e2, _, err = OpenSegmentsWith(dir, nil, OpenOptions{})
	if err != nil {
		t.Fatalf("%s: open after rebuild: %v", label, err)
	}
	return e2
}

func TestSaveSegmentsCrashRecovery(t *testing.T) {
	ds := testDataset(t, 150, 21)
	newFilter := func(sds *model.Dataset) (core.Filter, error) {
		return core.NewTokenFilter(sds), nil
	}
	eng, err := Build(ds, Config{Shards: 3, NewFilter: newFilter})
	if err != nil {
		t.Fatal(err)
	}
	queries := crashQueries(t, ds, 6)
	want := make([][]core.Match, len(queries))
	for i, q := range queries {
		m, _, err := eng.Search(context.Background(), q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}

	dir := filepath.Join(t.TempDir(), "segs")

	// Learn the save's step count with an unarmed injector.
	probe := &faultfs.Injector{}
	faultfs.Install(probe)
	err = eng.SaveSegments(dir)
	faultfs.Uninstall()
	if err != nil {
		t.Fatal(err)
	}
	steps := probe.Ops()
	if steps < 20 {
		t.Fatalf("implausibly few I/O steps per save: %d", steps)
	}
	ks := sampleSteps(steps)
	t.Logf("save takes %d mutating I/O steps; replaying %d failure points", steps, len(ks))

	// Scenario 1: crash during a save into an empty directory. The directory
	// must read as incomplete (rebuild) or — only when the fault landed after
	// the manifest's commit rename — boot the new generation.
	for _, torn := range []bool{false, true} {
		for _, k := range ks {
			label := fmt.Sprintf("fresh k=%d torn=%v", k, torn)
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			inj := (&faultfs.Injector{}).FailAt(k)
			if torn {
				inj.TornWrites()
			}
			faultfs.Install(inj)
			serr := eng.SaveSegments(dir)
			faultfs.Uninstall()
			if !inj.Tripped() {
				t.Fatalf("%s: fault never fired (steps=%d)", label, steps)
			}
			if serr == nil {
				t.Fatalf("%s: interrupted save reported success", label)
			}
			e2 := bootAfterCrash(t, label, dir, eng)
			expectEngineAnswers(t, label, e2, queries, want)
			e2.Close()
		}
	}

	// Scenario 2: crash while overwriting a complete previous generation.
	// Every failure point must leave either the old generation fully intact
	// (crash before the commit point was dropped) or ErrNoSegments — never a
	// directory mixing files from both generations under a valid manifest.
	for _, k := range ks {
		label := fmt.Sprintf("overwrite k=%d", k)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := eng.SaveSegments(dir); err != nil {
			t.Fatal(err)
		}
		inj := (&faultfs.Injector{}).FailAt(k).TornWrites()
		faultfs.Install(inj)
		serr := eng.SaveSegments(dir)
		faultfs.Uninstall()
		if serr == nil {
			t.Fatalf("%s: interrupted save reported success", label)
		}
		e2 := bootAfterCrash(t, label, dir, eng)
		expectEngineAnswers(t, label, e2, queries, want)
		e2.Close()
	}

	// Recovery clears crash debris: after every interrupted save above, a
	// final save leaves exactly the artifact set — the manifest, the dataset
	// segment and one segment per shard — with no temp file, and no file of
	// an older layout or a wider generation, surviving it.
	for _, stale := range []string{"dataset.snap", "parts.gob", "shard-0.grids.gob", "shard-3.seg", "shard-1.seg" + faultfs.TmpSuffix} {
		if err := os.WriteFile(filepath.Join(dir, stale), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	artifacts := []string{datasetName, manifestName, segName(0), segName(1), segName(2)}
	if !slices.Equal(names, artifacts) {
		t.Fatalf("segment directory holds %v after recovery, want %v", names, artifacts)
	}
}
