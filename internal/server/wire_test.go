package server

// The response encoder against its reference. The structs below are the
// query endpoints' wire schema as encoding/json types. The encoder
// must write exactly the bytes encoding/json writes for them, so they are
// the oracle here, and the decode targets of the HTTP tests.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	seal "github.com/sealdb/seal"
)

// wireMatch is the JSON form of one verified answer.
type wireMatch struct {
	ID    int     `json:"id"`
	SimR  float64 `json:"sim_r"`
	SimT  float64 `json:"sim_t"`
	Score float64 `json:"score,omitempty"`
}

// wireResults is one query's JSON answer. Degraded marks an answer that lost
// at least one shard (only possible on an allow-partial daemon): the matches
// present are exact, the missing shards' objects are absent. A degraded
// single-query answer travels with HTTP 206 so clients and proxies can tell
// without parsing the body.
type wireResults struct {
	Matches  []wireMatch `json:"matches"`
	Count    int         `json:"count"`
	Degraded bool        `json:"degraded,omitempty"`
	Stats    *wireStats  `json:"stats,omitempty"`
	Trace    *wireTrace  `json:"trace,omitempty"`
	TookMS   float64     `json:"took_ms"`
}

// wireExplain is POST /v1/explain's body: the execution story of one query.
// Matches are deliberately absent — /v1/query answers the question, explain
// answers how the engine got there. Degraded marks a query that lost a shard,
// exactly as on /v1/query.
type wireExplain struct {
	Count    int        `json:"count"`
	Degraded bool       `json:"degraded,omitempty"`
	Stats    *wireStats `json:"stats"`
	Trace    *wireTrace `json:"trace"`
	TookMS   float64    `json:"took_ms"`
}

// wireBatchResult pairs one batch entry's results with its error; exactly
// one field is set, mirroring seal.BatchResult.
type wireBatchResult struct {
	Results *wireResults `json:"results,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// refResults is the reference wire form of one answer.
func refResults(res *seal.Results, tr *wireTrace, tookMS float64) wireResults {
	ms := make([]wireMatch, len(res.Matches))
	for i, m := range res.Matches {
		ms[i] = wireMatch{ID: m.ID, SimR: m.SimR, SimT: m.SimT, Score: m.Score}
	}
	return wireResults{
		Matches: ms, Count: len(res.Matches), Degraded: res.Degraded,
		Stats: statsWire(res.Stats), Trace: tr, TookMS: tookMS,
	}
}

// encodeRef is what json.NewEncoder(w).Encode(v) writes.
func encodeRef(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeSizes records the size of every Write it receives.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// reencodes checks that body is exactly what encoding/json writes for the
// value it decodes to: no unknown field, no field out of order, no float
// spelled differently. ref builds the reference value from the decoded one.
func reencodes[T any](t *testing.T, body []byte, ref func(T) any) T {
	t.Helper()
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if want := encodeRef(t, ref(v)); !bytes.Equal(body, want) {
		t.Fatalf("body differs from encoding/json:\n got %s\nwant %s", body, want)
	}
	return v
}

func same[T any](v T) any { return v }

// TestWireEncoderMatchesEncodingJSON: every body the encoder writes equals
// encoding/json's encoding of the reference structs, byte for byte.
func TestWireEncoderMatchesEncodingJSON(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	ix := srv.Index()
	reqs := testQueries(t, ix, 3)
	query := func(req seal.Request) *seal.Results {
		t.Helper()
		res, err := ix.Query(context.Background(), req, seal.CollectStats(), seal.CollectTrace())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	threshold := query(reqs[0])
	if len(threshold.Matches) == 0 {
		t.Fatal("threshold query matched nothing")
	}
	ranked := reqs[1]
	ranked.TauR, ranked.TauT = 0, 0
	ranked.K, ranked.Alpha, ranked.FloorR, ranked.FloorT = 7, 0.5, 0.01, 0.01
	rankedRes := query(ranked)
	if len(rankedRes.Matches) < 2 {
		t.Fatalf("ranked query returned %d matches, want at least 2", len(rankedRes.Matches))
	}

	t.Run("results", func(t *testing.T) {
		with := func(res *seal.Results, edit func(*seal.Results)) *seal.Results {
			c := *res
			c.Matches = append([]seal.Match(nil), res.Matches...)
			if res.Stats != nil {
				st := *res.Stats
				c.Stats = &st
			}
			edit(&c)
			return &c
		}
		// A fat synthetic answer crosses the chunk threshold several times and
		// carries every float format edge.
		rng := rand.New(rand.NewSource(3))
		edges := []float64{1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e21, math.Nextafter(1e21, 0), 5e-324, 1e-310, 0.1, 1.0 / 3}
		fat := &seal.Results{Stats: threshold.Stats}
		for i := 0; i < 2000; i++ {
			m := seal.Match{ID: i * 7, SimR: rng.Float64(), SimT: rng.Float64() * 1e-6, Score: rng.ExpFloat64()}
			if i%5 == 0 {
				m.SimR = edges[i/5%len(edges)]
			}
			fat.Matches = append(fat.Matches, m)
		}
		cases := []struct {
			name   string
			res    *seal.Results
			traced bool
			tookMS float64
		}{
			{"threshold", threshold, false, 0.318},
			{"empty", &seal.Results{Stats: &seal.Stats{}}, false, 0},
			{"empty without stats", &seal.Results{}, false, 12},
			{"ranked", rankedRes, false, 1.5},
			{"ranked with zero scores", with(rankedRes, func(r *seal.Results) {
				r.Matches[0].Score = 0
				r.Matches[1].Score = math.Copysign(0, -1)
			}), false, 2e-7},
			{"degraded without stats", with(threshold, func(r *seal.Results) {
				r.Degraded, r.Stats = true, nil
			}), false, 0.5},
			{"degraded with stats", with(threshold, func(r *seal.Results) {
				r.Degraded = true
				r.Stats.ShardErrors, r.Stats.ShardsPruned = 1, 2
				r.Stats.FilterTime = 1500 * time.Nanosecond
			}), false, 1e21},
			{"degraded traced", with(threshold, func(r *seal.Results) { r.Degraded = true }), true, 0.75},
			{"traced", threshold, true, 3},
			{"fat", fat, false, 9.25},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				var tr *wireTrace
				var trace []byte
				if tc.traced {
					tr = traceWire(tc.res.Trace)
					var err error
					if trace, err = json.Marshal(tr); err != nil {
						t.Fatal(err)
					}
				}
				var out writeSizes
				ww := newWire(&out)
				ww.results(tc.res, true, trace, tc.tookMS)
				ww.b = append(ww.b, '\n')
				ww.finish()
				if want := encodeRef(t, refResults(tc.res, tr, tc.tookMS)); !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("encoder wrote\n%s\nencoding/json writes\n%s", out.Bytes(), want)
				}
				for i, n := range out.sizes[:len(out.sizes)-1] {
					if n < chunkBytes || n >= chunkCap {
						t.Fatalf("write %d of %d carried %d bytes, want a chunk in [%d, %d)", i, len(out.sizes), n, chunkBytes, chunkCap)
					}
				}
				if tc.name == "fat" && len(out.sizes) < 3 {
					t.Fatalf("a %d-byte answer went out in %d writes", out.Len(), len(out.sizes))
				}
			})
		}
	})

	t.Run("query", func(t *testing.T) {
		for _, path := range []string{"/v1/query", "/v1/query?trace=1"} {
			for _, req := range []seal.Request{reqs[0], ranked} {
				body, err := json.Marshal(wireFrom(req, ""))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var raw bytes.Buffer
				raw.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw.Bytes())
				}
				got := reencodes(t, raw.Bytes(), same[wireResults])
				if len(got.Matches) == 0 || (req.K > 0) != (got.Matches[0].Score != 0) {
					t.Fatalf("%s k=%d: %d matches, first %+v", path, req.K, len(got.Matches), got.Matches)
				}
			}
		}
	})

	t.Run("explain", func(t *testing.T) {
		for _, req := range []seal.Request{reqs[0], ranked} {
			body, err := json.Marshal(wireFrom(req, ""))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("explain k=%d: status %d: %s", req.K, resp.StatusCode, raw.Bytes())
			}
			got := reencodes(t, raw.Bytes(), same[wireExplain])
			if got.Count == 0 || got.Stats == nil || got.Trace == nil || len(got.Trace.Spans) == 0 {
				t.Fatalf("explain k=%d: %+v", req.K, got)
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		type batchBody struct {
			Results []wireBatchResult `json:"results"`
			TookMS  float64           `json:"took_ms"`
		}
		// The reference batch body is a map, which encoding/json writes with
		// its keys sorted.
		asMap := func(b batchBody) any { return map[string]any{"results": b.Results, "took_ms": b.TookMS} }
		for _, tc := range []struct {
			name    string
			queries []any
			failed  int
		}{
			{"options with a failing entry", []any{
				wireFrom(reqs[0], ""),
				wireRequest{Rect: []float64{0, 0, 1}, Tokens: []string{"x"}},
				wireFrom(reqs[1], "id"),
				wireFrom(ranked, ""),
			}, 1},
			{"shared", []any{wireFrom(reqs[0], ""), wireFrom(reqs[2], ""), wireFrom(ranked, "")}, 0},
		} {
			name, queries := tc.name, tc.queries
			body, err := json.Marshal(map[string]any{"queries": queries})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", name, resp.StatusCode)
			}
			got := reencodes(t, raw.Bytes(), asMap)
			failed := 0
			for _, e := range got.Results {
				if e.Error != "" {
					failed++
				}
			}
			if len(got.Results) != len(queries) || failed != tc.failed {
				t.Fatalf("%s: %d entries, %d failed", name, len(got.Results), failed)
			}
		}
	})

	t.Run("stream", func(t *testing.T) {
		for _, suffix := range []string{"", "&k=5&alpha=0.5&floor_r=0.01&floor_t=0.01"} {
			resp, err := ts.Client().Get(ts.URL + streamPath(reqs[0]) + suffix)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(resp.Body)
			lines := 0
			for sc.Scan() {
				reencodes(t, []byte(sc.Text()+"\n"), same[wireMatch])
				lines++
			}
			resp.Body.Close()
			if err := sc.Err(); err != nil || lines == 0 {
				t.Fatalf("stream%s: %d lines, %v", suffix, lines, err)
			}
		}
		// The terminal records, with an error message that needs escaping.
		msg := "shard 2: \"bad\" <&> \u2028\u2029 \xff\x01\ttail"
		if got, want := appendErrorRecord(nil, errors.New(msg)), encodeRef(t, map[string]string{"error": msg}); !bytes.Equal(got, want) {
			t.Fatalf("error record %s, encoding/json writes %s", got, want)
		}
		for _, n := range []int{1, 3, 12} {
			if got, want := appendDegradedRecord(nil, n), encodeRef(t, map[string]any{"degraded": true, "shard_errors": n}); !bytes.Equal(got, want) {
				t.Fatalf("degraded record %s, encoding/json writes %s", got, want)
			}
		}
	})
}

// FuzzWireMatch: one match's encoding equals encoding/json's for any finite
// similarities and score, the 'f'/'e' format boundaries, subnormals and
// negative zero included.
func FuzzWireMatch(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		id                int
		simR, simT, score float64
	}{
		{0, 0, 0, 0},
		{17, 0.41, 0.36, 0},
		{1 << 40, 1e-6, math.Nextafter(1e-6, 0), 1e21},
		{3, math.Nextafter(1e21, 0), 1e-7, 9.999999e-7},
		{-1, 5e-324, 2.2250738585072014e-308, 1e-310},
		{5, negZero, -1e-7, negZero},
		{6, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3},
		{7, 123456789e13, 1e20, 0.1},
	} {
		f.Add(seed.id, seed.simR, seed.simT, seed.score)
	}
	f.Fuzz(func(t *testing.T, id int, simR, simT, score float64) {
		for _, v := range []float64{simR, simT, score} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("encoding/json rejects non-finite floats")
			}
		}
		m := seal.Match{ID: id, SimR: simR, SimT: simT, Score: score}
		got := append(appendMatch(nil, m), '\n')
		want := encodeRef(t, wireMatch{ID: id, SimR: simR, SimT: simT, Score: score})
		if !bytes.Equal(got, want) {
			t.Fatalf("match %+v: encoder %s, encoding/json %s", m, got, want)
		}
	})
}

// TestQueryResponseAllocs pins what a match costs on the /v1/query path, end
// to end through handleQuery: one shard-run entry (24 B) and one seal.Match
// (32 B), and no allocation whose count grows with the answer — the body
// goes out through a pooled chunk, not a buffer the size of the answer. It
// also bounds the request's fixed allocation count.
func TestQueryResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A 40×40 grid of 10×10 objects over 4 shards. A query over the whole
	// grid matches every object carrying its one token: "a" is on a quarter
	// of them, "b" on half.
	const side = 40
	objs := make([]seal.Object, side*side)
	for i := range objs {
		x, y := float64(i%side)*25, float64(i/side)*25
		objs[i] = seal.Object{
			Region: seal.Rect{MinX: x, MinY: y, MaxX: x + 10, MaxY: y + 10},
			Tokens: []string{[...]string{"a", "b", "b", "c"}[i%4]},
		}
	}
	ix, err := seal.Build(objs, seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	srv := New(ix, DefaultConfig, nil)

	body := bytes.NewBuffer(make([]byte, 0, 1<<20))
	serve := func(req []byte) {
		body.Reset()
		rec := httptest.NewRecorder()
		rec.Body = body
		srv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, body.Bytes())
		}
	}
	type cost struct{ matches, allocs, bytes float64 }
	measure := func(token string) cost {
		req, err := json.Marshal(wireRequest{Rect: []float64{0, 0, side * 25, side * 25}, Tokens: []string{token}, TauR: 5e-5, TauT: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			serve(req) // warm the searcher pools and the chunk pool
		}
		var out struct{ Count int }
		if err := json.Unmarshal(body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		// A collection would empty the pools and bill their refill to the runs.
		gc := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gc)
		const runs = 50
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			serve(req)
		}
		runtime.ReadMemStats(&m1)
		return cost{float64(out.Count), float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs}
	}
	// Allocations anywhere in the process count, and that jitter only adds:
	// measure the two sizes alternately, three times each, and keep each
	// one's least counts.
	n, twice := measure("a"), measure("b")
	for i := 0; i < 2; i++ {
		a, b := measure("a"), measure("b")
		n = cost{n.matches, min(n.allocs, a.allocs), min(n.bytes, a.bytes)}
		twice = cost{twice.matches, min(twice.allocs, b.allocs), min(twice.bytes, b.bytes)}
	}
	t.Logf("%.0f matches: %.1f allocs, %.0f B; %.0f matches: %.1f allocs, %.0f B", n.matches, n.allocs, n.bytes, twice.matches, twice.allocs, twice.bytes)
	if n.matches < 100 || twice.matches != 2*n.matches {
		t.Fatalf("answers of %.0f and %.0f matches, want N ≥ 100 and 2N", n.matches, twice.matches)
	}
	// Goroutine descriptors come and go with the scatter; a per-match
	// allocation would add hundreds.
	if twice.allocs > n.allocs+1 {
		t.Errorf("allocations grow with the answer: %.1f for %.0f matches, %.1f for %.0f", n.allocs, n.matches, twice.allocs, twice.matches)
	}
	if per := (twice.bytes - n.bytes) / (twice.matches - n.matches); per > 64 {
		t.Errorf("each extra match allocates %.1f B, want at most 64 (a 24 B run entry and a 32 B seal.Match)", per)
	}
	// The fixed cost of a request: 56.0 allocations when this bound was set,
	// plus 1 for the scatter's goroutine descriptors, read off the smaller of
	// the two minima because that jitter only adds. A handler that
	// traced every request measured 65.2, so tracing by default fails here.
	const maxAllocs = 57
	if fixed := min(n.allocs, twice.allocs); fixed > maxAllocs {
		t.Errorf("a /v1/query request allocates %.1f times, want at most %d", fixed, maxAllocs)
	}
}
