package server

// Degraded-serving tests: a daemon booted from a segment directory with one
// damaged shard must come up serving the survivors — quarantine visible in
// /readyz, /v1/status, and /metrics; partial answers marked 206/degraded on
// an -allow-partial daemon and refused with 503 on a strict one. Plus the
// -data boot recovery path: an unusable segment directory is cleared and
// rebuilt from -data instead of failing the boot.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	seal "github.com/sealdb/seal"
)

// bootSegments builds an index into segDir from dataFile and reboots it
// segment-only, returning the live index and its boot info.
func bootSegments(t *testing.T, dataFile, segDir string, damage func()) (*seal.Index, BootInfo) {
	t.Helper()
	buildCfg := DefaultConfig
	buildCfg.DataPath = dataFile
	buildCfg.SegmentDir = segDir
	buildCfg.Shards = 3
	ix, info, err := Boot(buildCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != "built+saved" {
		t.Fatalf("first boot source %q, want built+saved", info.Source)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		damage()
	}
	segCfg := DefaultConfig
	segCfg.SegmentDir = segDir
	ix, info, err = Boot(segCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, info
}

func TestDegradedBootServesSurvivors(t *testing.T) {
	dataFile := testDataFile(t, 900)
	segDir := t.TempDir()
	const victim = 1
	ix, info := bootSegments(t, dataFile, segDir, func() {
		seg := filepath.Join(segDir, fmt.Sprintf("shard-%d.seg", victim))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()/3); err != nil {
			t.Fatal(err)
		}
	})
	if info.Quarantined != 1 {
		t.Fatalf("boot Quarantined = %d, want 1", info.Quarantined)
	}

	cfg := DefaultConfig
	cfg.SegmentDir = segDir
	cfg.AllowPartial = true
	srv := New(ix, cfg, nil)
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// /readyz names the quarantine so orchestrators see degraded, not down.
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status %d on a degraded-but-serving daemon", resp.StatusCode)
	}
	if !strings.Contains(string(body), "quarantined") {
		t.Fatalf("/readyz body %q does not mention the quarantine", body)
	}

	// /v1/status lists per-shard health.
	resp, err = ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Index struct {
			Quarantined int `json:"quarantined"`
		} `json:"index"`
		Shards []struct {
			Shard int    `json:"shard"`
			State string `json:"state"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Index.Quarantined != 1 {
		t.Fatalf("/v1/status quarantined = %d, want 1", status.Index.Quarantined)
	}
	quarantined := 0
	for _, sh := range status.Shards {
		if sh.State == "quarantined" {
			quarantined++
			if sh.Shard != victim {
				t.Fatalf("/v1/status quarantined shard %d, want %d", sh.Shard, victim)
			}
		}
	}
	if quarantined != 1 {
		t.Fatalf("/v1/status lists %d quarantined shards, want 1", quarantined)
	}

	// Queries on the -allow-partial daemon answer 206 with degraded set, and
	// every match agrees bit-for-bit with an in-process AllowPartial query.
	reqs := testQueries(t, ix, 6)
	for qi, req := range reqs {
		var got wireResults
		code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, "id"), &got)
		if code != http.StatusPartialContent {
			t.Fatalf("query %d: status %d, want 206", qi, code)
		}
		if !got.Degraded {
			t.Fatalf("query %d: degraded flag not set", qi)
		}
		want, err := ix.Query(context.Background(), req, seal.OrderByID(), seal.AllowPartial())
		if err != nil {
			t.Fatalf("query %d in-process: %v", qi, err)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("query %d: HTTP %d matches, in-process %d", qi, len(got.Matches), len(want.Matches))
		}
		for i, m := range want.Matches {
			g := got.Matches[i]
			if g.ID != m.ID || g.SimR != m.SimR || g.SimT != m.SimT {
				t.Fatalf("query %d match %d: HTTP %+v, in-process %+v", qi, i, g, m)
			}
		}
	}

	// /v1/explain runs the same body under the same options: a degraded
	// answer, 206 and flagged, not a refusal.
	var explained wireExplain
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/explain", wireFrom(reqs[0], "id"), &explained); code != http.StatusPartialContent {
		t.Fatalf("explain on the allow-partial daemon: status %d, want 206", code)
	}
	if !explained.Degraded || explained.Stats == nil || explained.Stats.ShardErrors != 1 {
		t.Fatalf("explain on the allow-partial daemon: degraded %v, stats %+v", explained.Degraded, explained.Stats)
	}

	// The quarantine and the degraded answers land in /metrics.
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"seal_shards_quarantined 1", "seal_degraded_queries_total", "seal_shard_errors_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// A strict daemon over the same index refuses rather than degrade.
	strictSrv := New(ix, DefaultConfig, nil)
	strictSrv.SetReady(true)
	strictTS := httptest.NewServer(strictSrv.Handler())
	defer strictTS.Close()
	if code := postJSON(t, strictTS.Client(), strictTS.URL+"/v1/query", wireFrom(reqs[0], "id"), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("strict daemon answered %d over a quarantined shard, want 503", code)
	}
	if code := postJSON(t, strictTS.Client(), strictTS.URL+"/v1/explain", wireFrom(reqs[0], "id"), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("strict daemon explained %d over a quarantined shard, want 503", code)
	}
}

// TestBootRebuildsUnusableSegmentDir: with -data present, a segment
// directory damaged beyond Build's stale-fallthrough (here: the path is a
// plain file) is cleared and rebuilt rather than failing the boot.
func TestBootRebuildsUnusableSegmentDir(t *testing.T) {
	dataFile := testDataFile(t, 400)
	segDir := filepath.Join(t.TempDir(), "segs")
	if err := os.WriteFile(segDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig
	cfg.DataPath = dataFile
	cfg.SegmentDir = segDir
	cfg.Shards = 2
	ix, info, err := Boot(cfg, nil)
	if err != nil {
		t.Fatalf("boot over an unusable segment dir: %v", err)
	}
	defer ix.Close()
	if info.Source != "rebuilt" {
		t.Fatalf("boot source %q, want rebuilt", info.Source)
	}
	// The rebuilt directory is a usable cache: the next boot maps it.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	segCfg := DefaultConfig
	segCfg.SegmentDir = segDir
	ix2, info2, err := Boot(segCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if info2.Source != "segments" || info2.Quarantined != 0 {
		t.Fatalf("reboot source %q quarantined %d, want clean segments boot", info2.Source, info2.Quarantined)
	}
}

// TestStaleFormatBootRebuilds: a directory of an earlier layout generation —
// a version-3 manifest (whose Seal segments each carried a key directory), a
// version-4 one (64-bit keys, and a count and quantization steps inside every
// list), a version-5 one (uint32 offset tables), a version-6 one (a compressed
// flag, and a fingerprint blind to token weights), a version-7 one (rows in
// ID order under partition lists), a version-8 one (rows in Z-order inside
// each shard), a version-9 one (the FNV-1a fingerprint), or a current manifest over
// posting segments of version 1, 2 or 3, or over version-4 ones of a retired
// posting layout (flag bit 2 set: the float64 fallback; bit 1 clear: the raw
// float64 arenas) — is stale, not damaged. A
// segment-only open reports the manifest-mismatch sentinel instead of
// quarantining all four shards, and a boot that has the dataset file
// rebuilds and saves over it.
func TestStaleFormatBootRebuilds(t *testing.T) {
	dataFile := testDataFile(t, 600)
	manifestAs := func(v string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(dir, "manifest.json")
			man, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			aged := strings.Replace(string(man), `"version": 10`, `"version": `+v, 1)
			if aged == string(man) {
				t.Fatalf("manifest carries no version 10 to age: %s", man)
			}
			if err := os.WriteFile(path, []byte(aged), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// segmentsWith rewrites one 32-bit header field of every posting segment:
	// the version at offset 8, the flags at 12.
	segmentsWith := func(off int, patch func(uint32) uint32) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			for i := 0; i < 4; i++ {
				path := filepath.Join(dir, fmt.Sprintf("shard-%d.seg", i))
				seg, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(seg[off:], patch(binary.LittleEndian.Uint32(seg[off:])))
				if err := os.WriteFile(path, seg, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	segmentsAs := func(v uint32) func(t *testing.T, dir string) {
		return segmentsWith(8, func(uint32) uint32 { return v })
	}
	ages := map[string]func(t *testing.T, dir string){
		"manifest v3": manifestAs("3"),
		"manifest v4": manifestAs("4"),
		"manifest v5": manifestAs("5"),
		"manifest v6": manifestAs("6"),
		"manifest v7": manifestAs("7"),
		"manifest v8": manifestAs("8"),
		"manifest v9": manifestAs("9"),
		"v1 posting segments under a current manifest":               segmentsAs(1),
		"v2 posting segments under a current manifest":               segmentsAs(2),
		"v3 posting segments under a current manifest":               segmentsAs(3),
		"flag bit 2 posting segments under a current manifest":       segmentsWith(12, func(f uint32) uint32 { return f | 1<<2 }),
		"flag bit 1 clear posting segments under a current manifest": segmentsWith(12, func(f uint32) uint32 { return f &^ (1 << 1) }),
	}
	for name, age := range ages {
		t.Run(name, func(t *testing.T) {
			segDir := filepath.Join(t.TempDir(), "segs")
			dataCfg := DefaultConfig
			dataCfg.DataPath = dataFile
			dataCfg.SegmentDir = segDir
			dataCfg.Shards = 4
			ix, _, err := Boot(dataCfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			age(t, segDir)

			if ix, err := seal.Open(segDir); !errors.Is(err, seal.ErrManifestMismatch) {
				if err == nil {
					ix.Close()
				}
				t.Fatalf("seal.Open of a stale directory: %v, want ErrManifestMismatch", err)
			}
			segCfg := DefaultConfig
			segCfg.SegmentDir = segDir
			if ix, _, err := Boot(segCfg, nil); !errors.Is(err, seal.ErrManifestMismatch) {
				if err == nil {
					ix.Close()
				}
				t.Fatalf("segment-only boot of a stale directory: %v, want ErrManifestMismatch", err)
			}

			ix, info, err := Boot(dataCfg, nil)
			if err != nil {
				t.Fatalf("boot with -data over a stale directory: %v", err)
			}
			if info.Source != "built+saved" || ix.Quarantined() != 0 {
				t.Fatalf("boot source %q with %d shards quarantined, want built+saved and none", info.Source, ix.Quarantined())
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			ix, info, err = Boot(segCfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if info.Source != "segments" || info.Quarantined != 0 {
				t.Fatalf("reboot source %q quarantined %d, want a clean segments boot", info.Source, info.Quarantined)
			}
		})
	}
}
