package server

// Endpoint handlers and the JSON wire schema. The wire schema is a thin,
// versioned skin over the library's Request/Results: rectangles travel as
// [minx,miny,maxx,maxy] arrays, similarity fields keep their paper names,
// and per-query options (limit/offset/order_by) ride in the same object so
// one POST body fully describes a query. Answers are written by the encoder
// in wire.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	seal "github.com/sealdb/seal"
)

// maxBodyBytes bounds request bodies: a batch of a few hundred queries fits
// comfortably; multi-megabyte bodies are a client bug or abuse.
const maxBodyBytes = 8 << 20

// wireRequest is the JSON form of one query.
type wireRequest struct {
	Rect   []float64 `json:"rect"`
	Tokens []string  `json:"tokens"`

	TauR float64 `json:"tau_r,omitempty"`
	TauT float64 `json:"tau_t,omitempty"`

	K      int     `json:"k,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`
	FloorR float64 `json:"floor_r,omitempty"`
	FloorT float64 `json:"floor_t,omitempty"`

	Limit   int    `json:"limit,omitempty"`
	Offset  int    `json:"offset,omitempty"`
	OrderBy string `json:"order_by,omitempty"` // id | score | arrival
}

// request converts the wire form, leaving semantic validation to the
// library so wire and in-process queries reject identically.
func (wr wireRequest) request() (seal.Request, []seal.QueryOption, error) {
	if len(wr.Rect) != 4 {
		return seal.Request{}, nil, fmt.Errorf("rect needs exactly 4 numbers [minx,miny,maxx,maxy], got %d", len(wr.Rect))
	}
	req := seal.Request{
		Region: seal.Rect{MinX: wr.Rect[0], MinY: wr.Rect[1], MaxX: wr.Rect[2], MaxY: wr.Rect[3]},
		Tokens: wr.Tokens,
		TauR:   wr.TauR, TauT: wr.TauT,
		K: wr.K, Alpha: wr.Alpha, FloorR: wr.FloorR, FloorT: wr.FloorT,
	}
	var opts []seal.QueryOption
	if wr.Limit != 0 {
		opts = append(opts, seal.Limit(wr.Limit))
	}
	if wr.Offset != 0 {
		opts = append(opts, seal.Offset(wr.Offset))
	}
	switch wr.OrderBy {
	case "":
	case "id":
		opts = append(opts, seal.OrderByID())
	case "score":
		opts = append(opts, seal.OrderByScore())
	case "arrival":
		opts = append(opts, seal.OrderByArrival())
	default:
		return seal.Request{}, nil, fmt.Errorf("unknown order_by %q (id|score|arrival)", wr.OrderBy)
	}
	return req, opts, nil
}

// wireStats is the JSON form of a query's cost breakdown.
type wireStats struct {
	Candidates      int     `json:"candidates"`
	Results         int     `json:"results"`
	ListsProbed     int     `json:"lists_probed"`
	PostingsScanned int     `json:"postings_scanned"`
	FilterMS        float64 `json:"filter_ms"`
	VerifyMS        float64 `json:"verify_ms"`
	ShardFanout     int     `json:"shard_fanout"`
	ShardsPruned    int     `json:"shards_pruned,omitempty"`
	ShardErrors     int     `json:"shard_errors,omitempty"`
}

func statsWire(st *seal.Stats) *wireStats {
	if st == nil {
		return nil
	}
	return &wireStats{
		Candidates:      st.Candidates,
		Results:         st.Results,
		ListsProbed:     st.ListsProbed,
		PostingsScanned: st.PostingsScanned,
		FilterMS:        float64(st.FilterTime.Microseconds()) / 1e3,
		VerifyMS:        float64(st.VerifyTime.Microseconds()) / 1e3,
		ShardFanout:     st.ShardFanout,
		ShardsPruned:    st.ShardsPruned,
		ShardErrors:     st.ShardErrors,
	}
}

// handleQuery answers POST /v1/query. Every query records a trace — the
// per-stage latency histograms and the slow-query log need stage attribution
// after the fact, and a slow query cannot be re-traced retroactively — but
// the trace only travels to the client under the ?trace=1 debug flag.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var wr wireRequest
	if !s.decodeBody(w, r, "query", start, &wr) {
		return
	}
	req, opts, err := wr.request()
	if err != nil {
		s.writeError(w, r, "query", http.StatusBadRequest, err, start)
		return
	}
	opts = append(opts, seal.CollectStats(), seal.CollectTrace())
	opts = append(opts, s.cfg.queryOpts()...)
	res, err := s.ix.Query(r.Context(), req, opts...)
	if err != nil {
		s.writeError(w, r, "query", queryErrorCode(err), err, start)
		return
	}
	s.metrics.RecordQuery(res.Stats, len(res.Matches))
	s.metrics.RecordStages(res.Trace)
	var trace []byte
	if r.URL.Query().Get("trace") == "1" {
		if trace, err = json.Marshal(traceWire(res.Trace)); err != nil {
			s.writeError(w, r, "query", http.StatusInternalServerError, err, start)
			return
		}
	}
	code := http.StatusOK
	if res.Degraded {
		// 206: the answer is exact for the shards that responded but a shard
		// was dropped, so completeness is not guaranteed.
		code = http.StatusPartialContent
	}
	writeHeader(w, code)
	ww := newWire(w)
	ww.results(res, trace, msSince(start))
	ww.b = append(ww.b, '\n')
	ww.finish()
	s.logRequest(r, "query", code, start, 1, len(res.Matches), res.Stats, res.Trace, nil)
}

// wireBatch is the POST /v1/query/batch body.
type wireBatch struct {
	Queries []wireRequest `json:"queries"`
}

// handleBatch answers POST /v1/query/batch: every query gets its own result
// slot, one malformed query never fails its neighbors.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var wb wireBatch
	if !s.decodeBody(w, r, "batch", start, &wb) {
		return
	}
	if len(wb.Queries) == 0 {
		s.writeError(w, r, "batch", http.StatusBadRequest, errors.New("batch has no queries"), start)
		return
	}
	if max := s.cfg.maxBatch(); len(wb.Queries) > max {
		s.writeError(w, r, "batch", http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the cap of %d", len(wb.Queries), max), start)
		return
	}

	// Per-entry option divergence (order_by/limit differ per query) is not
	// expressible through QueryBatch's shared options, so entries carrying
	// options run individually; the common case (bare queries) batches.
	reqs := make([]seal.Request, len(wb.Queries))
	individual := false
	for i, wq := range wb.Queries {
		if wq.Limit != 0 || wq.Offset != 0 || wq.OrderBy != "" {
			individual = true
		}
		req, _, err := wq.request()
		if err != nil {
			individual = true // shape errors report per-entry below
		}
		reqs[i] = req
	}

	// The body is {"results":[entry,...],"took_ms":...}: each entry is
	// {"results":{...}} or {"error":"..."}, written in order as it is known.
	writeHeader(w, http.StatusOK)
	ww := newWire(w)
	ww.b = append(ww.b, `{"results":[`...)
	matches := 0
	agg := &seal.Stats{}
	entry := func(i int, res *seal.Results, err error, tookMS float64) {
		if i > 0 {
			ww.b = append(ww.b, ',')
		}
		if err != nil {
			ww.b = appendString(append(ww.b, `{"error":`...), err.Error())
		} else {
			s.metrics.RecordQuery(res.Stats, len(res.Matches))
			accumulate(agg, res.Stats)
			matches += len(res.Matches)
			ww.b = append(ww.b, `{"results":`...)
			ww.results(res, nil, tookMS)
		}
		ww.b = append(ww.b, '}')
		ww.spill()
	}
	if individual {
		for i, wq := range wb.Queries {
			if err := r.Context().Err(); err != nil {
				entry(i, nil, err, 0)
				continue
			}
			qstart := time.Now()
			req, opts, err := wq.request()
			if err != nil {
				entry(i, nil, err, 0)
				continue
			}
			opts = append(opts, seal.CollectStats())
			opts = append(opts, s.cfg.queryOpts()...)
			res, err := s.ix.Query(r.Context(), req, opts...)
			entry(i, res, err, msSince(qstart))
		}
	} else {
		bopts := append([]seal.QueryOption{seal.CollectStats()}, s.cfg.queryOpts()...)
		for i, br := range s.ix.QueryBatch(r.Context(), reqs, bopts...) {
			entry(i, br.Results, br.Err, 0)
		}
	}
	ww.b = appendFloat(append(ww.b, `],"took_ms":`...), msSince(start))
	ww.b = append(ww.b, "}\n"...)
	ww.finish()
	s.logRequest(r, "batch", http.StatusOK, start, len(wb.Queries), matches, agg, nil, nil)
}

// handleStream answers GET /v1/stream with NDJSON: one record per match the
// moment the engine verifies it, flushed per line. Query parameters: rect
// (minx,miny,maxx,maxy), tokens (comma-separated), tau_r, tau_t, k, alpha,
// limit, order_by. A client disconnect cancels the underlying shard
// searches through the request context.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	wr, err := streamParams(r)
	if err != nil {
		s.writeError(w, r, "stream", http.StatusBadRequest, err, start)
		return
	}
	req, opts, err := wr.request()
	if err != nil {
		s.writeError(w, r, "stream", http.StatusBadRequest, err, start)
		return
	}
	var st seal.Stats
	var tr seal.Trace
	opts = append(opts, seal.StatsInto(&st), seal.TraceInto(&tr))
	opts = append(opts, s.cfg.queryOpts()...)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	ww := newWire(w)
	n := 0
	var streamErr error
	for m, err := range s.ix.Stream(r.Context(), req, opts...) {
		if err != nil {
			streamErr = err
			break
		}
		if n == 0 {
			// The status line commits on the first byte; errors before any
			// match still get a clean 4xx/5xx above.
			w.WriteHeader(http.StatusOK)
		}
		ww.b = append(appendMatch(ww.b, m), '\n')
		if wErr := ww.write(); wErr != nil {
			// The client went away mid-write; the loop break cancels the
			// engine work via ctx, nothing more to send.
			streamErr = wErr
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
		n++
	}
	s.metrics.RecordQuery(&st, n)
	s.metrics.RecordStages(&tr)
	if streamErr != nil {
		if n == 0 {
			ww.finish()
			s.writeError(w, r, "stream", queryErrorCode(streamErr), streamErr, start)
			return
		}
		// Mid-stream failure: the status is already committed, so the error
		// travels as a terminal NDJSON record.
		ww.b = appendErrorRecord(ww.b, streamErr)
	} else if st.ShardErrors > 0 {
		// The stream finished but dropped a shard (allow-partial daemon): the
		// matches already sent stand, completeness does not. The status line
		// is long committed, so the degradation travels as a terminal record.
		ww.b = appendDegradedRecord(ww.b, st.ShardErrors)
	}
	ww.finish()
	s.logRequest(r, "stream", statusCode(w), start, 1, n, &st, &tr, streamErr)
}

// streamParams parses /v1/stream's query string into the wire form.
func streamParams(r *http.Request) (wireRequest, error) {
	q := r.URL.Query()
	var wr wireRequest
	rectSpec := q.Get("rect")
	if rectSpec == "" {
		return wr, errors.New("missing rect parameter (minx,miny,maxx,maxy)")
	}
	for _, p := range strings.Split(rectSpec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return wr, fmt.Errorf("bad rect coordinate %q", p)
		}
		wr.Rect = append(wr.Rect, v)
	}
	for _, t := range strings.Split(q.Get("tokens"), ",") {
		if t = strings.TrimSpace(t); t != "" {
			wr.Tokens = append(wr.Tokens, t)
		}
	}
	var err error
	numbers := []struct {
		key string
		dst *float64
	}{
		{"tau_r", &wr.TauR}, {"tau_t", &wr.TauT},
		{"alpha", &wr.Alpha}, {"floor_r", &wr.FloorR}, {"floor_t", &wr.FloorT},
	}
	for _, n := range numbers {
		if v := q.Get(n.key); v != "" {
			if *n.dst, err = strconv.ParseFloat(v, 64); err != nil {
				return wr, fmt.Errorf("bad %s %q", n.key, v)
			}
		}
	}
	ints := []struct {
		key string
		dst *int
	}{
		{"k", &wr.K}, {"limit", &wr.Limit}, {"offset", &wr.Offset},
	}
	for _, n := range ints {
		if v := q.Get(n.key); v != "" {
			if *n.dst, err = strconv.Atoi(v); err != nil {
				return wr, fmt.Errorf("bad %s %q", n.key, v)
			}
		}
	}
	wr.OrderBy = q.Get("order_by")
	return wr, nil
}

// handleHealthz reports liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz reports readiness: the index is open (and warmed up) and the
// daemon is not draining. Load balancers should route on this, not healthz.
// A daemon serving with quarantined shards is still ready — degraded answers
// beat no answers — but each damaged shard gets its own line so probes (and
// humans) see exactly what is missing.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "not ready\n")
		return
	}
	degraded := s.ix.Quarantined()
	if degraded == 0 {
		io.WriteString(w, "ready\n")
		return
	}
	health := s.ix.Health()
	fmt.Fprintf(w, "ready (degraded: %d/%d shards quarantined)\n", degraded, len(health))
	for _, h := range health {
		if h.State != seal.ShardServing {
			fmt.Fprintf(w, "shard %d: %s: %s\n", h.Shard, h.State, h.Err)
		}
	}
}

// handleMetrics serves GET /metrics (and its /varz alias) in Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w)
}

// statusResponse is GET /v1/status's body.
type statusResponse struct {
	GoVersion   string  `json:"go_version"`
	Module      string  `json:"module,omitempty"`
	Version     string  `json:"version,omitempty"`
	StartedAt   string  `json:"started_at"`
	UptimeS     float64 `json:"uptime_s"`
	Ready       bool    `json:"ready"`
	Fingerprint string  `json:"dataset_fingerprint"`
	SegmentDir  string  `json:"segment_dir,omitempty"`
	BootSource  string  `json:"boot_source"` // "segments" | "built" | "built+saved"
	BootMS      float64 `json:"boot_ms"`
	WarmupRuns  int     `json:"warmup_queries,omitempty"`
	WarmupMS    float64 `json:"warmup_ms,omitempty"`

	Index struct {
		Objects    int    `json:"objects"`
		Vocabulary int    `json:"vocabulary"`
		Method     string `json:"method"`
		Shards     int    `json:"shards"`
		IndexBytes int64  `json:"index_bytes"`
		// SegmentBytes is the segment directory's size on disk (0 without
		// one), beside IndexBytes, the resident (or mapped) footprint.
		SegmentBytes int64 `json:"segment_bytes"`
		Mapped       bool  `json:"mapped"`
		// Quarantined counts shards sidelined at boot; on a strict daemon
		// every query fails while it is nonzero, on an allow-partial daemon
		// queries answer degraded.
		Quarantined int `json:"quarantined,omitempty"`
	} `json:"index"`

	// Shards is the per-shard boot health: one entry per spatial shard.
	Shards []shardStatus `json:"shards,omitempty"`

	Serving struct {
		InFlight        int64   `json:"in_flight"`
		Queries         uint64  `json:"queries_total"`
		PostingsScanned uint64  `json:"postings_scanned_total"`
		P50MS           float64 `json:"query_p50_ms"`
		P99MS           float64 `json:"query_p99_ms"`
		// SlowQueries counts requests at or over the slow-query threshold;
		// always zero when the threshold is disabled.
		SlowQueries uint64 `json:"slow_queries_total"`
		// Degraded-serving totals; always zero on a strict daemon.
		ShardErrors     uint64 `json:"shard_errors_total,omitempty"`
		DegradedQueries uint64 `json:"degraded_queries_total,omitempty"`
		// ShardsPruned counts shard searches skipped by extent pruning.
		ShardsPruned uint64 `json:"shards_pruned_total"`
	} `json:"serving"`
}

// shardStatus is one shard's boot health in /v1/status.
type shardStatus struct {
	Shard int    `json:"shard"`
	State string `json:"state"` // serving | quarantined
	Error string `json:"error,omitempty"`
}

// handleStatus answers GET /v1/status with build info, the dataset
// fingerprint, boot provenance, and a serving snapshot.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	var resp statusResponse
	resp.GoVersion = runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Module = bi.Main.Path
		resp.Version = bi.Main.Version
	}
	resp.StartedAt = s.metrics.StartTime().UTC().Format(time.RFC3339Nano)
	resp.UptimeS = s.metrics.Uptime().Seconds()
	resp.Ready = s.ready.Load()
	resp.Fingerprint = s.ix.Fingerprint()
	resp.SegmentDir = s.cfg.SegmentDir
	resp.BootSource = s.boot.Source
	resp.BootMS = float64(s.boot.BootTime.Microseconds()) / 1e3
	resp.WarmupRuns = s.boot.WarmupQueries
	resp.WarmupMS = float64(s.boot.WarmupTime.Microseconds()) / 1e3

	st := s.ix.Stats()
	resp.Index.Objects = st.Objects
	resp.Index.Vocabulary = st.Vocabulary
	resp.Index.Method = st.Method
	resp.Index.Shards = st.Shards
	resp.Index.IndexBytes = st.IndexBytes
	resp.Index.SegmentBytes = st.SegmentBytes
	resp.Index.Mapped = st.Mapped
	resp.Index.Quarantined = s.ix.Quarantined()
	for _, h := range s.ix.Health() {
		resp.Shards = append(resp.Shards, shardStatus{Shard: h.Shard, State: h.State.String(), Error: h.Err})
	}

	resp.Serving.InFlight = s.metrics.InFlight()
	resp.Serving.Queries = s.metrics.Queries()
	resp.Serving.PostingsScanned = s.metrics.PostingsScanned()
	resp.Serving.P50MS = s.metrics.LatencyQuantile("query", 0.50) * 1e3
	resp.Serving.P99MS = s.metrics.LatencyQuantile("query", 0.99) * 1e3
	resp.Serving.SlowQueries = s.metrics.SlowQueries()
	resp.Serving.ShardErrors = s.metrics.ShardErrors()
	resp.Serving.DegradedQueries = s.metrics.DegradedQueries()
	resp.Serving.ShardsPruned = s.metrics.ShardsPruned()

	writeJSON(w, http.StatusOK, resp)
}

// decodeBody decodes a JSON request body, bounding its size and rejecting
// trailing garbage. On failure it answers the request itself — 413 for a
// body over maxBodyBytes, 400 for anything else — and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err != nil {
		err = fmt.Errorf("decoding request body: %w", err)
	} else if dec.More() {
		err = errors.New("request body has trailing data")
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, r, endpoint, code, err, start)
	return false
}

// writeHeader commits a JSON response's status line.
func writeHeader(w http.ResponseWriter, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
}

// writeJSON writes v with the given status through encoding/json: the
// bodies without matches (errors, status, explain).
func writeJSON(w http.ResponseWriter, code int, v any) {
	writeHeader(w, code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError sends a JSON error body, records metrics attribution through
// the recorder, and logs the failed request.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, endpoint string, code int, err error, start time.Time) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
	s.logRequest(r, endpoint, code, start, 0, 0, nil, nil, err)
}

// queryErrorCode maps query errors to HTTP: a request invalid in its own
// content → 400, deadline → 504, client cancellation → 499 (nginx's
// convention; the client never sees it, metrics do), a quarantined shard →
// 503, anything else → 500.
func queryErrorCode(err error) int {
	switch {
	case errors.Is(err, seal.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	case errors.Is(err, seal.ErrShardQuarantined):
		// A strict query on an index with a quarantined shard: the daemon is
		// up but cannot give a complete answer until the shard is repaired.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// accumulate folds one query's stats into a batch aggregate.
func accumulate(agg *seal.Stats, st *seal.Stats) {
	if st == nil {
		return
	}
	agg.Candidates += st.Candidates
	agg.Results += st.Results
	agg.ListsProbed += st.ListsProbed
	agg.PostingsScanned += st.PostingsScanned
	agg.FilterTime += st.FilterTime
	agg.VerifyTime += st.VerifyTime
	agg.ShardFanout += st.ShardFanout
	agg.ShardsPruned += st.ShardsPruned
	agg.ShardErrors += st.ShardErrors
}

// logRequest emits the one-JSON-line query log entry. Requests at or over
// the slow-query threshold are flagged, counted, and — rate-limited to one
// offender per slowLogGap — carry their full execution trace inline, so the
// log answers "why was that one slow" without a reproduction run.
func (s *Server) logRequest(r *http.Request, endpoint string, status int, start time.Time, queries, matches int, st *seal.Stats, tr *seal.Trace, err error) {
	elapsed := time.Since(start)
	e := LogEntry{
		Endpoint:  endpoint,
		Method:    r.Method,
		Status:    status,
		LatencyMS: float64(elapsed.Microseconds()) / 1e3,
		Queries:   queries,
		Matches:   matches,
		Remote:    r.RemoteAddr,
	}
	if st != nil {
		e.Candidates = st.Candidates
		e.PostingsScanned = st.PostingsScanned
		e.ShardFanout = st.ShardFanout
	}
	if err != nil {
		e.Error = err.Error()
	}
	if slow, withTrace := s.noteSlow(elapsed); slow {
		e.Slow = true
		if withTrace {
			e.Trace = traceWire(tr)
		}
	}
	s.qlog.Log(e)
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1e3
}
