package server

// End-to-end tests over real HTTP listeners. The load-bearing one is the
// differential test: a daemon booted purely from a sealed-segment directory
// (no dataset file, no indexing) must serve answers bit-identical to in-process
// Query calls against a fresh build of the same data — the serving layer and
// the storage layer may not perturb a single bit of the paper's semantics.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	seal "github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// testDataFile writes a small deterministic Twitter-like dataset file, as
// sealgen does.
func testDataFile(t *testing.T, n int) string {
	t.Helper()
	ds, err := gen.Twitter(gen.TwitterConfig{N: n, Seed: 42, Cities: 8, VocabSize: 400, MeanTokens: 6})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.seg")
	if err := diskidx.WriteDataset(path, ds, [][]model.ObjectID{nil}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadObjects: the -data reader takes what sealgen writes — a dataset
// segment, single- and multi-region objects alike — back to the objects it
// was written from, and refuses anything else before a build starts: a file
// of another format (sealgen's old gob snapshots among them) by its magic, a
// truncated or damaged file as corrupt, and a missing file as missing.
func TestLoadObjects(t *testing.T) {
	var b model.Builder
	if _, err := b.Add(geo.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}, []string{"cafe", "wifi"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddMulti(geo.RectSet{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, {MinX: 5, MinY: 5, MaxX: 7, MaxY: 9}}, []string{"park"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(geo.Rect{MinX: -3, MinY: -3, MaxX: 0, MaxY: 0}, []string{"wifi", "park", "zoo"}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.seg")
	if err := diskidx.WriteDataset(path, ds, [][]model.ObjectID{nil}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) <= 4096 {
		t.Fatalf("dataset file of %d bytes has no payload page", len(good))
	}

	t.Run("dataset file", func(t *testing.T) {
		got, err := LoadObjects(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := SnapshotObjects(ds); !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded %+v, want %+v", got, want)
		}
		if len(got) != 3 || len(got[1].Regions) != 2 || got[1].Regions[1] != (seal.Rect{MinX: 5, MinY: 5, MaxX: 7, MaxY: 9}) {
			t.Fatalf("multi-region object lost its regions: %+v", got)
		}
	})
	refused := []struct {
		name  string
		bytes []byte
		want  func(error) bool
	}{
		{"foreign format", []byte(strings.Repeat("not a dataset segment ", 8)), func(err error) bool {
			return errors.Is(err, diskidx.ErrCorrupt) && strings.Contains(err.Error(), "bad segment magic")
		}},
		{"truncated", good[:len(good)-1], func(err error) bool { return errors.Is(err, diskidx.ErrCorrupt) }},
		{"damaged payload", func() []byte {
			b := slices.Clone(good)
			b[4096] ^= 0x40 // the first section's first byte, under its checksum
			return b
		}(), func(err error) bool { return errors.Is(err, diskidx.ErrCorrupt) }},
	}
	for _, c := range refused {
		t.Run(c.name, func(t *testing.T) {
			p := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-"))
			if err := os.WriteFile(p, c.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := LoadObjects(p); got != nil || !c.want(err) {
				t.Fatalf("LoadObjects = %d objects, %v", len(got), err)
			}
		})
	}
	t.Run("missing", func(t *testing.T) {
		if _, err := LoadObjects(filepath.Join(dir, "absent.seg")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("err = %v, want one wrapping fs.ErrNotExist", err)
		}
	})
}

// testQueries derives requests from indexed objects so they hit live posting
// lists (the same trick warmup uses).
func testQueries(t *testing.T, ix *seal.Index, n int) []seal.Request {
	t.Helper()
	total := ix.Len()
	reqs := make([]seal.Request, 0, n)
	for i := 0; len(reqs) < n && i < total; i += 1 + total/(n+1) {
		obj, err := ix.Object(i)
		if err != nil {
			t.Fatal(err)
		}
		tokens := obj.Tokens
		if len(tokens) == 0 {
			continue
		}
		if len(tokens) > 4 {
			tokens = tokens[:4]
		}
		region := obj.Region
		if len(obj.Regions) > 0 {
			region = obj.Regions[0]
		}
		// Inflate the region so more than the source object matches.
		w, h := region.MaxX-region.MinX, region.MaxY-region.MinY
		region.MinX -= 2 * w
		region.MaxX += 2 * w
		region.MinY -= 2 * h
		region.MaxY += 2 * h
		reqs = append(reqs, seal.Request{Region: region, Tokens: tokens, TauR: 0.05, TauT: 0.05})
	}
	if len(reqs) == 0 {
		t.Fatal("derived no usable queries")
	}
	return reqs
}

// postJSON posts v and decodes the response into out, returning the status.
func postJSON(t *testing.T, client *http.Client, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func wireFrom(req seal.Request, orderBy string) wireRequest {
	return wireRequest{
		Rect:   []float64{req.Region.MinX, req.Region.MinY, req.Region.MaxX, req.Region.MaxY},
		Tokens: req.Tokens,
		TauR:   req.TauR, TauT: req.TauT,
		K: req.K, Alpha: req.Alpha, FloorR: req.FloorR, FloorT: req.FloorT,
		OrderBy: orderBy,
	}
}

// TestDifferentialSegmentBoot is the acceptance test: boot once from the
// dataset file (persisting segments), boot again from segments alone, and check
// every HTTP answer bit-identical to in-process Query — both against the
// segment-booted index and against a fresh in-memory build of the same data.
func TestDifferentialSegmentBoot(t *testing.T) {
	dataFile := testDataFile(t, 1200)
	segDir := t.TempDir()

	buildCfg := DefaultConfig
	buildCfg.DataPath = dataFile
	buildCfg.SegmentDir = segDir
	buildCfg.Shards = 2
	ix1, info, err := Boot(buildCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != "built+saved" {
		t.Fatalf("first boot source %q, want built+saved", info.Source)
	}
	if err := ix1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second boot: segments only, no -data. This is the production path.
	segCfg := DefaultConfig
	segCfg.DataPath = ""
	segCfg.SegmentDir = segDir
	ix2, info2, err := Boot(segCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if info2.Source != "segments" {
		t.Fatalf("segment boot source %q, want segments", info2.Source)
	}
	if !ix2.Stats().Mapped {
		t.Fatal("segment-booted index is not mmap-backed")
	}

	// Reference: a fresh in-memory build straight from the dataset file.
	memCfg := DefaultConfig
	memCfg.DataPath = dataFile
	memCfg.Shards = 2
	ix3, _, err := Boot(memCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix3.Close()

	srv := New(ix2, segCfg, nil)
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := testQueries(t, ix2, 8)
	ranked := reqs[0]
	ranked.TauR, ranked.TauT = 0, 0
	ranked.K, ranked.Alpha = 7, 0.5
	ranked.FloorR, ranked.FloorT = 0.01, 0.01
	reqs = append(reqs, ranked)

	sawMatches := 0
	for qi, req := range reqs {
		orderBy := "id"
		if req.K > 0 {
			orderBy = "" // ranked answers come best-first already
		}
		var got wireResults
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, orderBy), &got); code != http.StatusOK {
			t.Fatalf("query %d: status %d", qi, code)
		}
		for _, ref := range []*seal.Index{ix2, ix3} {
			opts := []seal.QueryOption{}
			if orderBy == "id" {
				opts = append(opts, seal.OrderByID())
			}
			want, err := ref.Query(context.Background(), req, opts...)
			if err != nil {
				t.Fatalf("query %d in-process: %v", qi, err)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("query %d: HTTP %d matches, in-process %d", qi, len(got.Matches), len(want.Matches))
			}
			for i, m := range want.Matches {
				g := got.Matches[i]
				if g.ID != m.ID || g.SimR != m.SimR || g.SimT != m.SimT || g.Score != m.Score {
					t.Fatalf("query %d match %d: HTTP %+v, in-process %+v", qi, i, g, m)
				}
			}
		}
		sawMatches += len(got.Matches)
	}
	if sawMatches == 0 {
		t.Fatal("differential ran but no query matched anything")
	}
	t.Logf("compared %d queries, %d total matches, fingerprint %s", len(reqs), sawMatches, ix2.Fingerprint())

	if f2, f3 := ix2.Fingerprint(), ix3.Fingerprint(); f2 != f3 {
		t.Fatalf("dataset fingerprints diverge: segments %s, memory %s", f2, f3)
	}

	// The directory's size on disk is reported beside the index footprint,
	// and the directory is exactly the gob-free artifact set.
	var onDisk int64
	entries, err := os.ReadDir(segDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
		names = append(names, e.Name())
	}
	if want := []string{"dataset.seg", "manifest.json", "shard-0.seg", "shard-1.seg"}; !slices.Equal(names, want) {
		t.Fatalf("segment directory holds %v, want %v", names, want)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st statusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Index.SegmentBytes != onDisk || st.Index.IndexBytes <= 0 {
		t.Fatalf("status segment_bytes %d index_bytes %d, directory holds %d bytes", st.Index.SegmentBytes, st.Index.IndexBytes, onDisk)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nseal_segment_bytes %d\n", onDisk); !strings.Contains(string(text), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// bootTestServer builds a small served index directly (no dataset file).
func bootTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ds, err := gen.Twitter(gen.TwitterConfig{N: 600, Seed: 7, Cities: 6, VocabSize: 300, MeanTokens: 6})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := seal.Build(SnapshotObjects(ds), seal.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	srv := New(ix, cfg, nil)
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestReadyzGatesServing: /readyz and the query endpoints flip together.
func TestReadyzGatesServing(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	srv.SetReady(false)

	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /readyz = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("not-ready /healthz = %d, want 200 (liveness is not readiness)", code)
	}
	req := testQueries(t, srv.Index(), 1)[0]
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, ""), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready query = %d, want 503", code)
	}
	srv.SetReady(true)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("ready /readyz = %d, want 200", code)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, ""), nil); code != http.StatusOK {
		t.Fatalf("ready query = %d, want 200", code)
	}
}

// TestLimiterRejects: with the semaphore full, /v1/* returns 429 and the
// rejection counter moves.
func TestLimiterRejects(t *testing.T) {
	cfg := DefaultConfig
	cfg.MaxInFlight = 1
	srv, ts := bootTestServer(t, cfg)

	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()

	req := testQueries(t, srv.Index(), 1)[0]
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, ""), nil); code != http.StatusTooManyRequests {
		t.Fatalf("saturated query = %d, want 429", code)
	}
	if srv.metrics.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestRequestTimeout: an unmeetable deadline surfaces as 504.
func TestRequestTimeout(t *testing.T) {
	cfg := DefaultConfig
	cfg.RequestTimeout = time.Nanosecond
	srv, ts := bootTestServer(t, cfg)

	req := testQueries(t, srv.Index(), 1)[0]
	var out map[string]string
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, ""), &out); code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query = %d (%v), want 504", code, out)
	}
}

// TestBadRequests: a request the daemon cannot parse, or whose content the
// library rejects, answers 400 with an error message on every endpoint that
// takes one — never 500, and never 200 with an option silently dropped.
func TestBadRequests(t *testing.T) {
	_, ts := bootTestServer(t, DefaultConfig)
	want400 := func(t *testing.T, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, out["error"])
		}
		if out["error"] == "" {
			t.Fatal("no error message in body")
		}
	}
	for _, tc := range []struct {
		name string
		body string
	}{
		{"garbage", "{"},
		{"trailing", `{"rect":[0,0,1,1],"tokens":["a"],"tau_r":0.1,"tau_t":0.1} extra`},
		{"short-rect", `{"rect":[0,0,1],"tokens":["a"],"tau_r":0.1,"tau_t":0.1}`},
		{"bad-order", `{"rect":[0,0,1,1],"tokens":["a"],"tau_r":0.1,"tau_t":0.1,"order_by":"sideways"}`},
	} {
		t.Run("query/"+tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
			want400(t, resp, err)
		})
	}

	// Well-formed requests whose content the library rejects.
	valid := func(edit func(*wireRequest)) wireRequest {
		wr := wireRequest{Rect: []float64{0, 0, 1, 1}, Tokens: []string{"a"}, TauR: 0.1, TauT: 0.1}
		edit(&wr)
		return wr
	}
	for _, tc := range []struct {
		name string
		wr   wireRequest
	}{
		{"tau_r-zero", valid(func(wr *wireRequest) { wr.TauR = 0 })},
		{"tau_r-above-1", valid(func(wr *wireRequest) { wr.TauR = 1.5 })},
		{"k-negative", valid(func(wr *wireRequest) { wr.K = -1 })},
		{"score-order-threshold", valid(func(wr *wireRequest) { wr.OrderBy = "score" })},
		{"inverted-rect", valid(func(wr *wireRequest) { wr.Rect = []float64{1, 1, 0, 0} })},
		{"inverted-rect-ranked", valid(func(wr *wireRequest) { wr.Rect, wr.K = []float64{1, 1, 0, 0}, 3 })},
		{"limit-negative", valid(func(wr *wireRequest) { wr.Limit = -1 })},
		{"offset-negative", valid(func(wr *wireRequest) { wr.Offset = -1 })},
	} {
		body, err := json.Marshal(tc.wr)
		if err != nil {
			t.Fatal(err)
		}
		for _, endpoint := range []string{"query", "explain", "stream"} {
			t.Run(endpoint+"/"+tc.name, func(t *testing.T) {
				if endpoint == "stream" {
					resp, err := ts.Client().Get(ts.URL + "/v1/stream?" + streamValues(tc.wr).Encode())
					want400(t, resp, err)
					return
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/"+endpoint, "application/json", strings.NewReader(string(body)))
				want400(t, resp, err)
			})
		}
	}
}

// streamValues is wr as /v1/stream's query string.
func streamValues(wr wireRequest) url.Values {
	v := url.Values{}
	rect := make([]string, len(wr.Rect))
	for i, c := range wr.Rect {
		rect[i] = strconv.FormatFloat(c, 'g', -1, 64)
	}
	v.Set("rect", strings.Join(rect, ","))
	v.Set("tokens", strings.Join(wr.Tokens, ","))
	v.Set("tau_r", strconv.FormatFloat(wr.TauR, 'g', -1, 64))
	v.Set("tau_t", strconv.FormatFloat(wr.TauT, 'g', -1, 64))
	v.Set("k", strconv.Itoa(wr.K))
	v.Set("limit", strconv.Itoa(wr.Limit))
	v.Set("offset", strconv.Itoa(wr.Offset))
	v.Set("order_by", wr.OrderBy)
	return v
}

// TestBatchEndpoint: mixed well-formed and malformed entries answer
// per-entry; a batch over the cap is rejected whole.
func TestBatchEndpoint(t *testing.T) {
	cfg := DefaultConfig
	cfg.MaxBatch = 4
	srv, ts := bootTestServer(t, cfg)

	reqs := testQueries(t, srv.Index(), 2)
	batch := map[string]any{"queries": []any{
		wireFrom(reqs[0], ""),
		wireRequest{Rect: []float64{0, 0, 1}, Tokens: []string{"x"}}, // malformed
		wireFrom(reqs[1], "id"), // per-entry option → individual path
	}}
	var out struct {
		Results []struct {
			Results *wireResults `json:"results"`
			Error   string       `json:"error"`
		} `json:"results"`
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", batch, &out); code != http.StatusOK {
		t.Fatalf("batch status %d, want 200", code)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d entries, want 3", len(out.Results))
	}
	if out.Results[0].Results == nil || out.Results[0].Error != "" {
		t.Fatalf("entry 0 should succeed: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" {
		t.Fatal("malformed entry 1 reported no error")
	}
	if out.Results[2].Results == nil {
		t.Fatalf("entry 2 should succeed: %+v", out.Results[2])
	}

	over := map[string]any{"queries": make([]any, 5)}
	for i := range over["queries"].([]any) {
		over["queries"].([]any)[i] = wireFrom(reqs[0], "")
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", over, nil); code != http.StatusBadRequest {
		t.Fatalf("over-cap batch status %d, want 400", code)
	}
}

// TestStreamEndpoint: NDJSON records arrive one per match and agree with the
// non-streaming endpoint.
func TestStreamEndpoint(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	req := testQueries(t, srv.Index(), 1)[0]

	url := fmt.Sprintf("%s/v1/stream?rect=%g,%g,%g,%g&tokens=%s&tau_r=%g&tau_t=%g&order_by=id",
		ts.URL, req.Region.MinX, req.Region.MinY, req.Region.MaxX, req.Region.MaxY,
		strings.Join(req.Tokens, ","), req.TauR, req.TauT)
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var streamed []wireMatch
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m wireMatch
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		streamed = append(streamed, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	want, err := srv.Index().Query(context.Background(), req, seal.OrderByID())
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want.Matches) {
		t.Fatalf("streamed %d matches, query returned %d", len(streamed), len(want.Matches))
	}
	for i, m := range want.Matches {
		g := streamed[i]
		if g.ID != m.ID || g.SimR != m.SimR || g.SimT != m.SimT {
			t.Fatalf("stream match %d: %+v, want %+v", i, g, m)
		}
	}
}

// TestStreamClientDisconnect: a client that walks away mid-stream cancels
// the engine work; no goroutines outlive the request.
func TestStreamClientDisconnect(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	req := testQueries(t, srv.Index(), 1)[0]
	req.TauR, req.TauT = 0.001, 0.001 // match a lot, so the stream is long

	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		url := fmt.Sprintf("%s/v1/stream?rect=%g,%g,%g,%g&tokens=%s&tau_r=%g&tau_t=%g",
			ts.URL, req.Region.MinX, req.Region.MinY, req.Region.MaxX, req.Region.MaxY,
			strings.Join(req.Tokens, ","), req.TauR, req.TauT)
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(httpReq)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read one line, then vanish.
		sc := bufio.NewScanner(resp.Body)
		if sc.Scan() && len(sc.Bytes()) == 0 {
			t.Fatal("empty first stream line")
		}
		cancel()
		resp.Body.Close()
	}
	// Keep-alive connections hold per-conn server goroutines; close them so
	// the leak check sees only what the handlers themselves left behind.
	ts.Client().Transport.(*http.Transport).CloseIdleConnections()
	waitForServerGoroutines(t, baseline)
}

// TestMetricsAfterLoad: after real traffic, /metrics reports nonzero
// postings-scanned and populated latency histograms — the acceptance
// criterion for the observability layer.
func TestMetricsAfterLoad(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	reqs := testQueries(t, srv.Index(), 4)
	for _, req := range reqs {
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, ""), nil); code != http.StatusOK {
			t.Fatalf("load query status %d", code)
		}
	}
	batch := map[string]any{"queries": []any{wireFrom(reqs[0], ""), wireFrom(reqs[1], "")}}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", batch, nil); code != http.StatusOK {
		t.Fatalf("load batch status %d", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	assertCounter := func(name string, min uint64) {
		t.Helper()
		var v uint64
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") {
				fmt.Sscanf(line, name+" %d", &v)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("metric %s missing from exposition", name)
		}
		if v < min {
			t.Fatalf("%s = %d, want >= %d", name, v, min)
		}
	}
	assertCounter("seal_queries_total", 6)
	assertCounter("seal_postings_scanned_total", 1)
	assertCounter("seal_shard_searches_total", 6)
	if !strings.Contains(text, `seal_request_duration_seconds_count{endpoint="query"} `) {
		t.Fatal("query latency histogram missing")
	}
	if strings.Contains(text, `seal_request_duration_seconds_count{endpoint="query"} 0`) {
		t.Fatal("query latency histogram empty after load")
	}
	if !strings.Contains(text, `seal_requests_total{endpoint="query",code="200"} `) {
		t.Fatal("per-endpoint request counter missing")
	}
	if srv.metrics.PostingsScanned() == 0 {
		t.Fatal("registry postings-scanned is zero after load")
	}
}

// TestStatusEndpoint reports boot provenance and serving facts.
func TestStatusEndpoint(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	srv.SetBootInfo(BootInfo{Source: "built", BootTime: 123 * time.Millisecond})
	req := testQueries(t, srv.Index(), 1)[0]
	postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, ""), nil)

	resp, err := ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st statusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.BootSource != "built" || st.Fingerprint == "" {
		t.Fatalf("status = %+v", st)
	}
	if st.Index.Objects == 0 || st.Index.Shards != 2 {
		t.Fatalf("status index block = %+v", st.Index)
	}
	if st.Serving.Queries == 0 {
		t.Fatalf("status serving block = %+v", st.Serving)
	}
}

// TestWarmup runs synthetic queries and records them under their own label.
func TestWarmup(t *testing.T) {
	cfg := DefaultConfig
	cfg.Warmup = 8
	srv, _ := bootTestServer(t, cfg)
	if err := srv.RunWarmup(nil); err != nil {
		t.Fatal(err)
	}
	if srv.boot.WarmupQueries != 8 || srv.boot.WarmupTime <= 0 {
		t.Fatalf("warmup boot info = %+v", srv.boot)
	}
	if srv.metrics.latency["warmup"].Count() == 0 {
		t.Fatal("warmup latency not recorded")
	}
	if srv.metrics.latency["query"].Count() != 0 {
		t.Fatal("warmup leaked into the serving histogram")
	}
	if srv.metrics.PostingsScanned() == 0 {
		t.Fatal("warmup scanned no postings")
	}
}

// TestConcurrentServingAndShutdown drives queries, batches, and streams from
// many goroutines while readiness flips and the listener closes — run under
// -race, it is the shutdown-correctness test. Afterward no goroutine may
// survive.
func TestConcurrentServingAndShutdown(t *testing.T) {
	cfg := DefaultConfig
	cfg.MaxInFlight = 16
	srv, ts := bootTestServer(t, cfg)
	reqs := testQueries(t, srv.Index(), 4)

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	client := ts.Client()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				req := reqs[(w+i)%len(reqs)]
				body, _ := json.Marshal(wireFrom(req, ""))
				resp, err := client.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
				if err != nil {
					return // listener closed under us; expected during shutdown
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
				default:
					t.Errorf("query worker saw status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := reqs[w]
			url := fmt.Sprintf("%s/v1/stream?rect=%g,%g,%g,%g&tokens=%s&tau_r=%g&tau_t=%g",
				ts.URL, req.Region.MinX, req.Region.MinY, req.Region.MaxX, req.Region.MaxY,
				strings.Join(req.Tokens, ","), req.TauR, req.TauT)
			for i := 0; i < 10; i++ {
				resp, err := client.Get(url)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			srv.SetReady(i%2 == 1) // flip readiness under load
		}
		srv.SetReady(true)
	}()

	wg.Wait()
	srv.SetReady(false)
	ts.Close() // drains in-flight handlers like http.Server.Shutdown
	waitForServerGoroutines(t, baseline)

	if srv.metrics.InFlight() != 0 {
		t.Fatalf("in-flight gauge = %d after drain", srv.metrics.InFlight())
	}
}

// waitForServerGoroutines polls until the goroutine count settles to at most
// baseline (HTTP keep-alive and engine goroutines exit asynchronously).
func waitForServerGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
