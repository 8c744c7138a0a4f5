package server

// Prometheus-format metrics, hand-rolled so the daemon stays dependency-free.
// Everything hot-path is a plain atomic: counters for request/engine work
// totals, a fixed-bucket histogram per endpoint for latency. The exposition
// (WriteTo) walks the registry under no lock — scrapes see a consistent-
// enough snapshot, which is all Prometheus semantics ask for.

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	seal "github.com/sealdb/seal"
)

// latencyBuckets are the histogram upper bounds in seconds. They span 100µs
// (an in-memory single-shard hit) to 10s (the default request timeout).
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with atomic cells.
type histogram struct {
	counts []atomic.Uint64 // one per bucket, non-cumulative
	inf    atomic.Uint64   // observations above the last bound
	sumNS  atomic.Int64
	total  atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(latencyBuckets))}
}

// Observe records one request latency.
func (h *histogram) Observe(d time.Duration) {
	s := d.Seconds()
	placed := false
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sumNS.Add(int64(d))
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *histogram) Count() uint64 { return h.total.Load() }

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation inside the bucket holding the target rank; observations in
// the overflow bucket report the last finite bound. Zero observations
// report 0.
func (h *histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, ub := range latencyBuckets {
		c := h.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (ub-lower)*frac
		}
		cum += c
		lower = ub
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// writeTo emits the histogram in Prometheus cumulative-bucket form. The count
// is the +Inf bucket's, as the format requires, even while observations land
// between the loads.
func (h *histogram) writeTo(w io.Writer, name, labels string) {
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, ub, cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, trimComma(labels), float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, trimComma(labels), cum)
}

// trimComma drops the trailing comma a label prefix carries for composition
// with the le label.
func trimComma(labels string) string {
	if n := len(labels); n > 0 && labels[n-1] == ',' {
		return labels[:n-1]
	}
	return labels
}

// Metrics is the daemon's metric registry.
type Metrics struct {
	start time.Time

	// requests_total{endpoint,code}
	mu       sync.Mutex
	requests map[requestKey]uint64

	inFlight atomic.Int64
	rejected atomic.Uint64 // limiter rejections (429)

	// per-endpoint latency histograms, fixed at construction.
	latency map[string]*histogram

	// engine work totals, accumulated from per-query Stats.
	postingsScanned atomic.Uint64
	listsProbed     atomic.Uint64
	candidates      atomic.Uint64
	matches         atomic.Uint64
	shardSearches   atomic.Uint64
	queries         atomic.Uint64
	shardsPruned    atomic.Uint64
	slowQueries     atomic.Uint64
	shardErrors     atomic.Uint64
	degradedQueries atomic.Uint64

	// shardsQuarantined is the boot-health gauge, set once from the index.
	shardsQuarantined atomic.Int64

	// per-stage latency histograms, keyed by metricStages, fed from query
	// Stats.
	stages map[string]*histogram

	// index facts, set once at boot.
	indexMu    sync.Mutex
	indexStats seal.IndexStats
}

// requestKey labels one seal_requests_total series.
type requestKey struct {
	endpoint string
	code     int
}

// metricEndpoints are the latency-histogram labels. Warmup traffic records
// under its own label so boot-time page faulting never skews serving p99s.
var metricEndpoints = []string{"query", "batch", "stream", "explain", "warmup"}

// metricStages are the per-stage latency labels, in pipeline order: the
// stage names of a trace, and of RecordStages' Stats fields.
var metricStages = []string{"admit", "filter", "verify", "merge"}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:    time.Now(),
		requests: make(map[requestKey]uint64),
		latency:  make(map[string]*histogram, len(metricEndpoints)),
		stages:   make(map[string]*histogram, len(metricStages)),
	}
	for _, e := range metricEndpoints {
		m.latency[e] = newHistogram()
	}
	for _, st := range metricStages {
		m.stages[st] = newHistogram()
	}
	return m
}

// SetIndexStats records the served index's shape for the exposition.
func (m *Metrics) SetIndexStats(st seal.IndexStats) {
	m.indexMu.Lock()
	m.indexStats = st
	m.indexMu.Unlock()
}

// RecordRequest counts one finished HTTP request.
func (m *Metrics) RecordRequest(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	m.requests[requestKey{endpoint, code}]++
	m.mu.Unlock()
	if h, ok := m.latency[endpoint]; ok {
		h.Observe(d)
	}
}

// RecordQuery accumulates one executed query's engine work. st may be nil
// (stats collection failed); the query still counts.
func (m *Metrics) RecordQuery(st *seal.Stats, matches int) {
	m.queries.Add(1)
	m.matches.Add(uint64(matches))
	if st == nil {
		return
	}
	m.postingsScanned.Add(uint64(st.PostingsScanned))
	m.listsProbed.Add(uint64(st.ListsProbed))
	m.candidates.Add(uint64(st.Candidates))
	m.shardSearches.Add(uint64(st.ShardFanout))
	m.shardsPruned.Add(uint64(st.ShardsPruned))
	if st.ShardErrors > 0 {
		m.shardErrors.Add(uint64(st.ShardErrors))
		m.degradedQueries.Add(1)
	}
}

// RecordStages folds one query's per-stage times into the stage histograms:
// one observation for each stage whose time is nonzero, which is each stage
// the query ran (an arrival-order stream verifies inside its filter and
// merges nothing). Shard times sum per stage. Nil stats no-op; the
// query-level metrics recorded the query regardless.
func (m *Metrics) RecordStages(st *seal.Stats) {
	if st == nil {
		return
	}
	for i, d := range [...]time.Duration{st.AdmitTime, st.FilterTime, st.VerifyTime, st.MergeTime} {
		if d > 0 {
			m.stages[metricStages[i]].Observe(d)
		}
	}
}

// RecordSlowQuery counts one request at or over the slow-query threshold.
func (m *Metrics) RecordSlowQuery() { m.slowQueries.Add(1) }

// SetQuarantined records how many shards were quarantined at boot.
func (m *Metrics) SetQuarantined(n int) { m.shardsQuarantined.Store(int64(n)) }

// ShardErrors returns the cumulative dropped-shard total across all queries.
func (m *Metrics) ShardErrors() uint64 { return m.shardErrors.Load() }

// DegradedQueries returns how many queries answered with at least one shard
// dropped.
func (m *Metrics) DegradedQueries() uint64 { return m.degradedQueries.Load() }

// SlowQueries returns the cumulative slow-query count.
func (m *Metrics) SlowQueries() uint64 { return m.slowQueries.Load() }

// StartTime reports when the registry (≈ the process) started.
func (m *Metrics) StartTime() time.Time { return m.start }

// ShardsPruned returns the accumulated pruned-shard total.
func (m *Metrics) ShardsPruned() uint64 { return m.shardsPruned.Load() }

// RecordRejected counts one limiter rejection.
func (m *Metrics) RecordRejected() { m.rejected.Add(1) }

// IncInFlight / DecInFlight track concurrently executing requests.
func (m *Metrics) IncInFlight() { m.inFlight.Add(1) }
func (m *Metrics) DecInFlight() { m.inFlight.Add(-1) }

// InFlight returns the current in-flight request count.
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// Queries returns the total executed query count (batch entries count
// individually).
func (m *Metrics) Queries() uint64 { return m.queries.Load() }

// PostingsScanned returns the accumulated postings-scanned total.
func (m *Metrics) PostingsScanned() uint64 { return m.postingsScanned.Load() }

// LatencyQuantile estimates a latency quantile in seconds for one endpoint
// label ("query", "batch", "stream", "warmup").
func (m *Metrics) LatencyQuantile(endpoint string, q float64) float64 {
	h, ok := m.latency[endpoint]
	if !ok {
		return 0
	}
	return h.Quantile(q)
}

// Uptime reports time since the registry (≈ the process) started.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteTo emits the registry in Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}

	fmt.Fprintln(cw, "# HELP seal_requests_total HTTP requests finished, by endpoint and status code.")
	fmt.Fprintln(cw, "# TYPE seal_requests_total counter")
	m.mu.Lock()
	requests := maps.Clone(m.requests)
	m.mu.Unlock()
	byLabels := func(a, b requestKey) int {
		return cmp.Or(strings.Compare(a.endpoint, b.endpoint), cmp.Compare(a.code, b.code))
	}
	for _, k := range slices.SortedFunc(maps.Keys(requests), byLabels) {
		fmt.Fprintf(cw, "seal_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, requests[k])
	}

	fmt.Fprintln(cw, "# HELP seal_requests_rejected_total Requests rejected by the concurrency limiter.")
	fmt.Fprintln(cw, "# TYPE seal_requests_rejected_total counter")
	fmt.Fprintf(cw, "seal_requests_rejected_total %d\n", m.rejected.Load())

	fmt.Fprintln(cw, "# HELP seal_in_flight_requests Requests currently executing.")
	fmt.Fprintln(cw, "# TYPE seal_in_flight_requests gauge")
	fmt.Fprintf(cw, "seal_in_flight_requests %d\n", m.inFlight.Load())

	fmt.Fprintln(cw, "# HELP seal_request_duration_seconds Request latency by endpoint.")
	fmt.Fprintln(cw, "# TYPE seal_request_duration_seconds histogram")
	for _, e := range metricEndpoints {
		m.latency[e].writeTo(cw, "seal_request_duration_seconds", fmt.Sprintf("endpoint=%q,", e))
	}

	fmt.Fprintln(cw, "# HELP seal_stage_seconds Per-query pipeline-stage time from query stats; concurrent shard times sum per stage.")
	fmt.Fprintln(cw, "# TYPE seal_stage_seconds histogram")
	for _, st := range metricStages {
		m.stages[st].writeTo(cw, "seal_stage_seconds", fmt.Sprintf("stage=%q,", st))
	}

	fmt.Fprintln(cw, "# HELP seal_slow_queries_total Requests at or over the slow-query threshold.")
	fmt.Fprintln(cw, "# TYPE seal_slow_queries_total counter")
	fmt.Fprintf(cw, "seal_slow_queries_total %d\n", m.slowQueries.Load())

	engineCounters := []struct {
		name, help string
		v          uint64
	}{
		{"seal_queries_total", "Queries executed (batch entries count individually).", m.queries.Load()},
		{"seal_matches_total", "Verified matches returned.", m.matches.Load()},
		{"seal_postings_scanned_total", "Inverted-index postings scanned by the filter step.", m.postingsScanned.Load()},
		{"seal_lists_probed_total", "Posting lists probed by the filter step.", m.listsProbed.Load()},
		{"seal_candidates_total", "Candidates that reached exact verification.", m.candidates.Load()},
		{"seal_shard_searches_total", "Per-shard searches actually run (realized fan-out).", m.shardSearches.Load()},
		{"seal_shards_pruned_total", "Shard searches skipped because the shard's extent cannot reach the query's spatial threshold.", m.shardsPruned.Load()},
		{"seal_shard_errors_total", "Shards dropped from query merges (errored, panicked, timed out, or quarantined).", m.shardErrors.Load()},
		{"seal_degraded_queries_total", "Queries answered degraded: at least one shard dropped from the merge.", m.degradedQueries.Load()},
	}
	for _, c := range engineCounters {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}

	m.indexMu.Lock()
	st := m.indexStats
	m.indexMu.Unlock()
	indexGauges := []struct {
		name, help string
		v          int64
	}{
		{"seal_index_objects", "Objects in the served index.", int64(st.Objects)},
		{"seal_index_vocabulary", "Distinct tokens in the served index.", int64(st.Vocabulary)},
		{"seal_index_shards", "Spatial shards of the served index.", int64(st.Shards)},
		{"seal_index_bytes", "In-memory (or mapped) index footprint in bytes.", st.IndexBytes},
		{"seal_segment_bytes", "Size on disk of the segment directory in bytes (0 without one).", st.SegmentBytes},
		{"seal_index_mapped", "1 when postings are served from mmap-ed sealed segments.", int64(b2i(st.Mapped))},
		{"seal_shards_quarantined", "Shards sidelined at boot with a corrupt or missing segment.", m.shardsQuarantined.Load()},
	}
	for _, g := range indexGauges {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}

	// Go runtime vitals: scrape-time reads, no background sampler. ReadMemStats
	// stops the world, but for well under a scrape interval's worth of time.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintln(cw, "# HELP seal_goroutines Live goroutines.")
	fmt.Fprintln(cw, "# TYPE seal_goroutines gauge")
	fmt.Fprintf(cw, "seal_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintln(cw, "# HELP seal_heap_alloc_bytes Bytes of live heap objects.")
	fmt.Fprintln(cw, "# TYPE seal_heap_alloc_bytes gauge")
	fmt.Fprintf(cw, "seal_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintln(cw, "# HELP seal_heap_sys_bytes Bytes of heap obtained from the OS.")
	fmt.Fprintln(cw, "# TYPE seal_heap_sys_bytes gauge")
	fmt.Fprintf(cw, "seal_heap_sys_bytes %d\n", ms.HeapSys)
	fmt.Fprintln(cw, "# HELP seal_gcs_total Completed garbage-collection cycles.")
	fmt.Fprintln(cw, "# TYPE seal_gcs_total counter")
	fmt.Fprintf(cw, "seal_gcs_total %d\n", ms.NumGC)
	fmt.Fprintln(cw, "# HELP seal_gc_pause_seconds_total Cumulative stop-the-world GC pause time.")
	fmt.Fprintln(cw, "# TYPE seal_gc_pause_seconds_total counter")
	fmt.Fprintf(cw, "seal_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)

	fmt.Fprintln(cw, "# HELP seal_uptime_seconds Seconds since the daemon started.")
	fmt.Fprintln(cw, "# TYPE seal_uptime_seconds gauge")
	fmt.Fprintf(cw, "seal_uptime_seconds %g\n", m.Uptime().Seconds())

	return cw.n, cw.err
}

// countingWriter tracks bytes and the first error for WriteTo's contract.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
