package engine

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/model"
)

// Tests of the concurrent open: shards are mapped side by side, yet the
// outcome — which error wins, which shard is quarantined and why — is the one
// a serial open meets in shard order, after the fingerprint check, and no
// mapping or goroutine outlives a failed open.

// damagedDir saves a 4-shard Seal engine and damages it: shard 1's segment
// is cut to half its size when corrupt is set, and shard 3's header carries
// an earlier format version when stale is set. It returns the directory and
// the root dataset the shards were cut from.
func damagedDir(t *testing.T, corrupt, stale bool) string {
	t.Helper()
	e, err := Build(testDataset(t, 400, 54), Config{Shards: 4, NewFilter: func(sds *model.Dataset) (core.Filter, error) {
		return core.BuildFilter(sds, sealRung)
	}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := e.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	if corrupt {
		path := filepath.Join(dir, segName(1))
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	if stale {
		f, err := os.OpenFile(filepath.Join(dir, segName(3)), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.WriteAt([]byte{3}, 8) // the header's version: an earlier layout's
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// shardOpenErr is what opening shard i of dir on its own reports: the error a
// serial open meets at that shard.
func shardOpenErr(t *testing.T, dir string, i int) error {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	dseg, err := diskidx.OpenDataset(filepath.Join(dir, datasetName))
	if err != nil {
		t.Fatal(err)
	}
	defer dseg.Close()
	b := dseg.Bounds()
	sub, err := dseg.Dataset().Subset(int(b[i]), int(b[i+1]))
	if err != nil {
		t.Fatal(err)
	}
	_, seg, err := openOneShard(dir, i, sub, m)
	if err == nil {
		seg.Close()
		t.Fatalf("shard %d of %s opens cleanly", i, dir)
	}
	return err
}

// mappedFrom counts the live mappings of files under dir, read from
// /proc/self/maps; ok is false where the platform has no such file.
func mappedFrom(dir string) (n int, ok bool) {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) {
			n++
		}
	}
	return n, true
}

// openFails opens dir, expecting an error, and checks that the failed open
// left no mapping of the directory and no goroutine behind.
func openFails(t *testing.T, dir string, quarantine bool) error {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	e, err := OpenSegmentsWith(dir, quarantine)
	if err == nil {
		e.Close()
		t.Fatalf("open (quarantine %v) succeeded, want an error", quarantine)
	}
	if n, ok := mappedFrom(dir); ok && n != 0 {
		t.Fatalf("a failed open (quarantine %v, %v) leaves %d mappings of the directory", quarantine, err, n)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a failed open leaves %d goroutines, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
	return err
}

// TestOpenSegmentsErrorPrecedence: with shard 1 corrupt and shard 3 stale, a
// strict open fails on shard 1, the first it meets, with that shard's own
// error, and a tolerant one quarantines shard 1 and then fails on shard 3's
// version as a manifest mismatch.
func TestOpenSegmentsErrorPrecedence(t *testing.T) {
	dir := damagedDir(t, true, true)
	want := shardOpenErr(t, dir, 1)
	err := openFails(t, dir, false)
	if err.Error() != "engine: shard 1: "+want.Error() || !errors.Is(err, diskidx.ErrCorrupt) || errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("strict open: %v, want shard 1's %v", err, want)
	}
	if err := openFails(t, dir, true); !errors.Is(err, ErrManifestMismatch) || !strings.Contains(err.Error(), "shard 3") {
		t.Fatalf("tolerant open: %v, want a manifest mismatch at shard 3", err)
	}
}

// TestOpenSegmentsQuarantinesInOrder: with shard 1 alone corrupt, a tolerant
// open serves shards 0, 2 and 3 and quarantines exactly shard 1, with the
// error a strict open fails with.
func TestOpenSegmentsQuarantinesInOrder(t *testing.T) {
	dir := damagedDir(t, true, false)
	want := shardOpenErr(t, dir, 1)
	if err := openFails(t, dir, false); err.Error() != "engine: shard 1: "+want.Error() {
		t.Fatalf("strict open: %v, want shard 1's %v", err, want)
	}
	e, err := OpenSegmentsWith(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	health := e.Health()
	if len(health) != 4 || e.Quarantined() != 1 {
		t.Fatalf("health %+v, want 4 shards with 1 quarantined", health)
	}
	for i, h := range health {
		if h.Shard != i {
			t.Fatalf("health entry %d names shard %d", i, h.Shard)
		}
		if i == 1 {
			if h.State != ShardQuarantined || h.Err != want.Error() {
				t.Fatalf("shard 1: %+v, want quarantined with %q", h, want)
			}
			continue
		}
		if h.State != ShardServing || h.Err != "" {
			t.Fatalf("shard %d: %+v, want serving", i, h)
		}
	}
}

// TestOpenSegmentsFingerprintFirst: a manifest whose fingerprint is not the
// dataset's fails every open as a manifest mismatch, whatever the shards
// hold — the check a serial open makes before it opens any shard.
func TestOpenSegmentsFingerprintFirst(t *testing.T) {
	for _, damage := range []struct{ corrupt, stale bool }{{false, false}, {true, false}, {true, true}} {
		dir := damagedDir(t, damage.corrupt, damage.stale)
		path := filepath.Join(dir, manifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		m.Fingerprint = "0123456789abcdef"
		if data, err = json.Marshal(&m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, quarantine := range []bool{false, true} {
			err := openFails(t, dir, quarantine)
			if !errors.Is(err, ErrManifestMismatch) || !strings.Contains(err.Error(), "different dataset") {
				t.Fatalf("damage %+v, quarantine %v: %v, want the fingerprint's manifest mismatch", damage, quarantine, err)
			}
		}
	}
}
