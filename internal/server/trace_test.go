package server

// Observability endpoint tests: /v1/explain's trace schema, the ?trace=1
// debug flag on /v1/query, slow-query flagging with stats-bearing log lines,
// the stage/runtime metric exposition, and the pprof mount gate.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	seal "github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
)

// bootLoggedServer is bootTestServer with a capturing query log.
func bootLoggedServer(t *testing.T, cfg Config, logw io.Writer) (*Server, *httptest.Server) {
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
	srv := New(ix, cfg, NewQueryLog(logw))
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestExplainEndpoint: POST /v1/explain answers with the execution story —
// every pipeline stage as a timed span, stage totals, stats — and no matches.
func TestExplainEndpoint(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	req := testQueries(t, srv.Index(), 1)[0]

	var out wireExplain
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/explain", wireFrom(req, "id"), &out); code != http.StatusOK {
		t.Fatalf("explain status %d", code)
	}
	if out.Trace == nil || len(out.Trace.Spans) == 0 {
		t.Fatal("explain returned no trace spans")
	}
	if out.Stats == nil {
		t.Fatal("explain returned no stats")
	}
	if out.Trace.ElapsedUS <= 0 || out.Trace.ElapsedUS > out.TookMS*1000 {
		t.Fatalf("trace elapsed %vµs outside (0, took %vms]", out.Trace.ElapsedUS, out.TookMS)
	}
	for _, stage := range []string{"admit", "filter", "verify", "merge"} {
		found := false
		for _, sp := range out.Trace.Spans {
			if sp.Stage == stage {
				found = true
				if sp.StartUS < 0 || sp.DurationUS < 0 {
					t.Fatalf("%s span has negative timing: %+v", stage, sp)
				}
				if end := sp.StartUS + sp.DurationUS; end > out.Trace.ElapsedUS {
					t.Fatalf("%s span ends at %vµs past elapsed %vµs", stage, end, out.Trace.ElapsedUS)
				}
			}
		}
		if !found {
			t.Fatalf("no %q span in explain trace", stage)
		}
		if out.Trace.StageTotalsUS[stage] < 0 {
			t.Fatalf("negative stage total for %q", stage)
		}
	}
	if out.Trace.StageTotalsUS["admit"] <= 0 {
		t.Fatal("admit stage total is zero: admission was not timed")
	}

	// Explain answers "how", not "what": the body must not carry matches.
	body, err := json.Marshal(wireFrom(req, "id"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["matches"]; ok {
		t.Fatal("explain response carries matches")
	}

	// A malformed body fails like /v1/query does.
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/explain", wireRequest{Rect: []float64{1}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad explain request: status %d, want 400", code)
	}
}

// TestQueryTraceFlag: /v1/query embeds the trace only under ?trace=1 and the
// flag changes nothing about the answer.
func TestQueryTraceFlag(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	req := testQueries(t, srv.Index(), 1)[0]

	var plain, traced wireResults
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, "id"), &plain); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if plain.Trace != nil {
		t.Fatal("plain /v1/query response carries a trace")
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query?trace=1", wireFrom(req, "id"), &traced); code != http.StatusOK {
		t.Fatalf("traced query status %d", code)
	}
	if traced.Trace == nil || len(traced.Trace.Spans) == 0 {
		t.Fatal("?trace=1 response carries no trace spans")
	}
	if len(traced.Matches) != len(plain.Matches) {
		t.Fatalf("traced query returned %d matches, plain %d", len(traced.Matches), len(plain.Matches))
	}
	for i := range plain.Matches {
		if traced.Matches[i] != plain.Matches[i] {
			t.Fatalf("match %d: traced %+v != plain %+v", i, traced.Matches[i], plain.Matches[i])
		}
	}
}

// TestSlowQueryTelemetry: with a threshold every query can't beat, every
// request is counted and flagged slow, and every line carries the query's
// stats in /v1/query's schema but no trace.
func TestSlowQueryTelemetry(t *testing.T) {
	cfg := DefaultConfig
	cfg.SlowQuery = time.Nanosecond // everything is an offender
	var logBuf bytes.Buffer
	srv, ts := bootLoggedServer(t, cfg, &logBuf)
	req := testQueries(t, srv.Index(), 1)[0]

	const n = 4
	for i := 0; i < n; i++ {
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, "id"), nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	if got := srv.Metrics().SlowQueries(); got != n {
		t.Fatalf("SlowQueries() = %d, want %d", got, n)
	}

	slow := 0
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var e LogEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("unparseable log line: %v", err)
		}
		if e.Slow {
			slow++
		}
		var raw struct {
			Stats map[string]json.RawMessage `json:"stats"`
			Trace json.RawMessage            `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatalf("unparseable log line: %v", err)
		}
		// Every slow line says where the time went, and none carries a trace.
		if e.Slow {
			for _, key := range []string{"candidates", "filter_ms", "shard_fanout"} {
				if _, ok := raw.Stats[key]; !ok {
					t.Fatalf("slow line lacks stats.%s: %s", key, sc.Bytes())
				}
			}
		}
		if raw.Trace != nil {
			t.Fatalf("log line carries a trace: %s", sc.Bytes())
		}
	}
	if slow != n {
		t.Fatalf("%d log lines flagged slow, want %d", slow, n)
	}

	// The counter also reaches /metrics and /v1/status.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "seal_slow_queries_total 4") {
		t.Fatal("seal_slow_queries_total not exported with the offender count")
	}
	var status statusResponse
	resp, err = ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Serving.SlowQueries != n {
		t.Fatalf("status slow_queries_total = %d, want %d", status.Serving.SlowQueries, n)
	}
	if _, err := time.Parse(time.RFC3339Nano, status.StartedAt); err != nil {
		t.Fatalf("status started_at %q is not RFC 3339: %v", status.StartedAt, err)
	}
	if status.UptimeS <= 0 {
		t.Fatalf("status uptime_s = %v, want > 0", status.UptimeS)
	}
}

// TestSlowQueryDisabled: with the default zero threshold nothing is flagged.
func TestSlowQueryDisabled(t *testing.T) {
	var logBuf bytes.Buffer
	srv, ts := bootLoggedServer(t, DefaultConfig, &logBuf)
	req := testQueries(t, srv.Index(), 1)[0]
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, "id"), nil); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if srv.Metrics().SlowQueries() != 0 {
		t.Fatal("slow queries counted with telemetry disabled")
	}
	if strings.Contains(logBuf.String(), `"slow":true`) {
		t.Fatal("log line flagged slow with telemetry disabled")
	}
}

// TestStageAndRuntimeMetrics: serving queries feeds the per-stage histograms,
// batch entries included, and the exposition carries the Go runtime vitals.
func TestStageAndRuntimeMetrics(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	req := testQueries(t, srv.Index(), 1)[0]
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", wireFrom(req, "id"), nil); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	for _, stage := range []string{"admit", "filter", "verify", "merge"} {
		marker := `seal_stage_seconds_count{stage="` + stage + `"} 3`
		if !strings.Contains(text, marker) {
			t.Errorf("missing %q: every query must observe the %s stage once", marker, stage)
		}
	}
	for _, name := range []string{
		"seal_goroutines", "seal_heap_alloc_bytes", "seal_heap_sys_bytes",
		"seal_gcs_total", "seal_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("runtime metric %s not exported", name)
		}
	}

	// Each batch entry observes the filter stage once.
	before := stageCount(t, text, "filter")
	batch := wireBatch{Queries: []wireRequest{wireFrom(req, ""), wireFrom(req, ""), wireFrom(req, "")}}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", batch, nil); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	var buf bytes.Buffer
	if _, err := srv.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if after := stageCount(t, buf.String(), "filter"); after != before+3 {
		t.Fatalf("a 3-entry batch moved the filter stage count %d → %d, want +3", before, after)
	}
}

// stageCount reads seal_stage_seconds_count for one stage off an exposition.
func stageCount(t *testing.T, exposition, stage string) int {
	t.Helper()
	prefix := `seal_stage_seconds_count{stage="` + stage + `"} `
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no %s sample", strings.TrimSpace(prefix))
	return 0
}

// TestPprofGate: the profiling endpoints exist only when the configuration
// asks for them.
func TestPprofGate(t *testing.T) {
	_, off := bootTestServer(t, DefaultConfig)
	resp, err := off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("default config serves /debug/pprof/ with %d, want 404", resp.StatusCode)
	}

	cfg := DefaultConfig
	cfg.Pprof = true
	_, on := bootTestServer(t, cfg)
	resp, err = on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof-enabled config serves /debug/pprof/ with %d, want 200", resp.StatusCode)
	}
}

// TestStreamRecordsStages: the NDJSON stream endpoint also feeds the stage
// histograms (its trace arrives through TraceInto, not Results).
func TestStreamRecordsStages(t *testing.T) {
	srv, ts := bootTestServer(t, DefaultConfig)
	req := testQueries(t, srv.Index(), 1)[0]
	url := ts.URL + streamPath(req)
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := srv.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `seal_stage_seconds_count{stage="filter"} 1`) {
		t.Fatal("streamed query did not observe the filter stage")
	}
}

// streamPath renders a request as /v1/stream query parameters.
func streamPath(req seal.Request) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	rect := strings.Join([]string{
		f(req.Region.MinX), f(req.Region.MinY), f(req.Region.MaxX), f(req.Region.MaxY),
	}, ",")
	return "/v1/stream?rect=" + rect +
		"&tokens=" + strings.Join(req.Tokens, ",") +
		"&tau_r=" + f(req.TauR) + "&tau_t=" + f(req.TauT)
}
