package main

// The traced run. One client replays the same requests down a ladder of
// rungs, outermost first, on an in-process index opened from the very segment
// directory the daemon served:
//
//	client.roundtrip   real loopback HTTP to an httptest server
//	  server.handler   that server's handler, timed by a middleware
//	lib.query_traced   Query + CollectStats + CollectTrace — what the handler asks
//	  engine.<stage>   the returned trace's own spans
//	lib.query          Query with no options
//
// A rung's self time is its duration minus the rung beneath it. Spans are
// recorded here, around calls into each layer's public surface; nothing
// inside the program is instrumented.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	seal "github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/server"
)

// span is one record of spans.jsonl. Start and End are nanoseconds since the
// benchmark process started; spans of one request share Request.
type span struct {
	Workload string `json:"workload"`
	Request  int    `json:"request"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Shard    *int   `json:"shard,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. Only the ladder's
// own goroutine records.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// timed records one span; shard is nil except for engine spans.
func (l *spanLog) timed(workload string, id int, name, parent string, shard *int, start, end time.Time) {
	l.spans = append(l.spans, span{Workload: workload, Request: id, Name: name, Parent: parent, Shard: shard,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
}

func (l *spanLog) writeFile(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

const requestIDHeader = "X-Bench-Request"

// handlerTimes is the middleware's record of the server.handler rung.
type handlerTimes struct {
	mu         sync.Mutex
	start, end []time.Time
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(requestIDHeader))
		if err != nil || id < 0 || id >= len(h.start) {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		h.mu.Lock()
		h.start[id], h.end[id] = t0, t1
		h.mu.Unlock()
	})
}

// libObs is what one library-level replay of a request observed.
type libObs struct {
	queries int // 1, or the batch size
	matches int
	stats   seal.Stats // summed over a batch's queries
	traces  []*seal.Trace
}

// addStats folds one query's cost breakdown into a running total.
func addStats(total *seal.Stats, st *seal.Stats) {
	total.Candidates += st.Candidates
	total.Results += st.Results
	total.ListsProbed += st.ListsProbed
	total.PostingsScanned += st.PostingsScanned
	total.FilterTime += st.FilterTime
	total.VerifyTime += st.VerifyTime
	total.ShardFanout += st.ShardFanout
	total.ShardsPruned += st.ShardsPruned
}

// runLib replays r on ix the way the daemon's handler for its kind does —
// traced asks for exactly the options that handler passes — or with none.
func (r *request) runLib(ctx context.Context, ix *seal.Index, traced bool) (libObs, error) {
	obs := libObs{queries: len(r.reqs)}
	switch r.kind {
	case kindStream:
		opts := []seal.QueryOption{seal.Limit(r.limit)}
		var st seal.Stats
		var tr seal.Trace
		if traced {
			opts = append(opts, seal.StatsInto(&st), seal.TraceInto(&tr))
		}
		for _, err := range ix.Stream(ctx, r.reqs[0], opts...) {
			if err != nil {
				return obs, err
			}
			obs.matches++
		}
		if traced {
			addStats(&obs.stats, &st)
			obs.traces = append(obs.traces, &tr)
		}
	case kindBatch:
		var opts []seal.QueryOption
		if traced {
			opts = append(opts, seal.CollectStats()) // the batch handler records no trace
		}
		for _, br := range ix.QueryBatch(ctx, r.reqs, opts...) {
			if br.Err != nil {
				return obs, br.Err
			}
			obs.matches += len(br.Results.Matches)
			if traced {
				addStats(&obs.stats, br.Results.Stats)
			}
		}
	default:
		var opts []seal.QueryOption
		if traced {
			opts = append(opts, seal.CollectStats(), seal.CollectTrace())
		}
		res, err := ix.Query(ctx, r.reqs[0], opts...)
		if err != nil {
			return obs, err
		}
		obs.matches = len(res.Matches)
		if traced {
			addStats(&obs.stats, res.Stats)
			obs.traces = append(obs.traces, res.Trace)
		}
	}
	return obs, nil
}

// replayPlain times the lib.query rung over reqs and counts its allocations.
func replayPlain(ix *seal.Index, reqs []request) (us []float64, starts []time.Time, allocsPerReq float64, err error) {
	ctx := context.Background()
	us = make([]float64, len(reqs))
	starts = make([]time.Time, len(reqs))
	for i := range reqs[:max(len(reqs)/10, 1)] { // untimed: warm caches and pools
		if _, err := reqs[i].runLib(ctx, ix, false); err != nil {
			return nil, nil, 0, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		starts[i] = time.Now()
		if _, err := reqs[i].runLib(ctx, ix, false); err != nil {
			return nil, nil, 0, err
		}
		us[i] = float64(time.Since(starts[i]).Nanoseconds()) / 1e3
	}
	runtime.ReadMemStats(&ms1)
	return us, starts, float64(ms1.Mallocs-ms0.Mallocs) / float64(len(reqs)), nil
}

// discardWriter is the response sink of the allocation pass: it counts bytes
// and keeps nothing, so the handler's own allocations are all that is left.
type discardWriter struct {
	header http.Header
	bytes  int64
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.bytes += int64(len(p)); return len(p), nil }
func (w *discardWriter) Flush()                      {}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func runLadder(cfg *config, w workload, e *env, res *runResult) error {
	m := res.metrics
	n := min(w.ladder, len(e.pool))
	if cfg.ladderCap > 0 {
		n = min(n, cfg.ladderCap)
	}
	reqs := e.pool[:n]
	ctx := context.Background()

	t := time.Now()
	ix, err := seal.Open(e.segDir)
	if err != nil {
		return err
	}
	defer ix.Close()
	m["storage.open_s"] = time.Since(t).Seconds()

	scfg := server.DefaultConfig
	scfg.SegmentDir = e.segDir
	srv := server.New(ix, scfg, nil)
	srv.SetReady(true)
	handler := srv.Handler()
	times := &handlerTimes{start: make([]time.Time, n), end: make([]time.Time, n)}
	ts := httptest.NewServer(times.wrap(handler))
	defer ts.Close()
	c := newClients(ts.URL)[0]
	defer c.hc.CloseIdleConnections()

	// Untimed pass: fault the mapped pages in and open the connection.
	for i := range reqs[:max(n/10, 1)] {
		if err := reqs[i].validate(c.do(&reqs[i])); err != nil {
			return fmt.Errorf("ladder warm-up: %w", err)
		}
	}

	// Rungs 1 and 2: client.roundtrip ⊃ server.handler.
	roundtrip := make([]float64, n)
	handlerUS := make([]float64, n)
	transport := make([]float64, n)
	for i := range reqs {
		r := &reqs[i]
		t0 := time.Now()
		rep := c.doTagged(r, strconv.Itoa(i))
		t1 := time.Now()
		if err := r.validate(rep); err != nil {
			return fmt.Errorf("ladder roundtrip %d: %w", i, err)
		}
		times.mu.Lock()
		h0, h1 := times.start[i], times.end[i]
		times.mu.Unlock()
		roundtrip[i] = usOf(t1.Sub(t0))
		handlerUS[i] = usOf(h1.Sub(h0))
		transport[i] = roundtrip[i] - handlerUS[i]
		cfg.spans.timed(w.name, i, "client.roundtrip", "", nil, t0, t1)
		cfg.spans.timed(w.name, i, "server.handler", "client.roundtrip", nil, h0, h1)
	}

	// Rung 3: lib.query_traced, with the trace's spans as children.
	traced := make([]float64, n)
	var ms0, ms1 runtime.MemStats
	var agg libObs
	var filterUS, verifyUS []float64
	stageUS := map[string][]float64{}
	var stageSum, tracedWall float64
	observations := make([]libObs, n)
	tracedStart := make([]time.Time, n)
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		tracedStart[i] = time.Now()
		obs, err := reqs[i].runLib(ctx, ix, true)
		traced[i] = usOf(time.Since(tracedStart[i]))
		if err != nil {
			return fmt.Errorf("ladder lib.query_traced %d: %w", i, err)
		}
		observations[i] = obs
	}
	runtime.ReadMemStats(&ms1)
	m["lib.allocs_per_query_traced"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	for i, obs := range observations {
		end := tracedStart[i].Add(time.Duration(traced[i] * 1e3))
		cfg.spans.timed(w.name, i, "lib.query_traced", "", nil, tracedStart[i], end)
		agg.queries += obs.queries
		agg.matches += obs.matches
		st := obs.stats
		addStats(&agg.stats, &st)
		filterUS = append(filterUS, usOf(st.FilterTime))
		verifyUS = append(verifyUS, usOf(st.VerifyTime))
		for _, tr := range obs.traces {
			tracedWall += traced[i]
			for stage, d := range tr.StageTotals() {
				stageSum += usOf(d)
				stageUS[stage] = append(stageUS[stage], usOf(d))
			}
			for _, s := range tr.Spans {
				shard, start := s.Shard, tracedStart[i].Add(s.Start)
				cfg.spans.timed(w.name, i, "engine."+s.Stage, "lib.query_traced", &shard, start, start.Add(s.Duration))
			}
		}
	}

	// Rung 4: lib.query.
	plain, plainStart, plainAllocs, err := replayPlain(ix, reqs)
	if err != nil {
		return fmt.Errorf("ladder lib.query: %w", err)
	}
	for i := range plain {
		cfg.spans.timed(w.name, i, "lib.query", "", nil, plainStart[i], plainStart[i].Add(time.Duration(plain[i]*1e3)))
	}

	// Allocation pass: the handler called directly, requests built up front,
	// responses discarded — MemStats deltas then belong to the handler alone.
	httpReqs := make([]*http.Request, n)
	for i := range reqs {
		var body io.Reader
		if reqs[i].body != nil {
			body = bytes.NewReader(reqs[i].body)
		}
		httpReqs[i] = httptest.NewRequest(reqs[i].method, reqs[i].path, body)
	}
	sink := &discardWriter{header: make(http.Header)}
	runtime.ReadMemStats(&ms0)
	for _, hr := range httpReqs {
		handler.ServeHTTP(sink, hr)
	}
	runtime.ReadMemStats(&ms1)

	selfServer := make([]float64, n)
	overhead := make([]float64, n)
	for i := range reqs {
		selfServer[i] = handlerUS[i] - traced[i]
		overhead[i] = traced[i] - plain[i]
	}
	queries := float64(agg.queries)
	m["http.roundtrip_us"] = median(roundtrip)
	m["http.transport_us"] = median(transport)
	m["server.handler_us"] = median(handlerUS)
	m["server.self_us"] = median(selfServer)
	m["server.response_bytes"] = float64(sink.bytes) / float64(n)
	m["server.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	m["server.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	m["lib.query_us"] = median(plain)
	m["lib.query_traced_us"] = median(traced)
	m["lib.matches_per_query"] = float64(agg.matches) / queries
	m["lib.allocs_per_query"] = plainAllocs
	m["trace.overhead_us"] = median(overhead)
	m["trace.overhead_ratio"] = m["lib.query_traced_us"] / m["lib.query_us"]
	m["engine.admit_us"] = median(stageUS["admit"])
	m["engine.merge_us"] = median(stageUS["merge"])
	m["planner.plan_us"] = median(stageUS["plan"])
	m["engine.shard_fanout"] = float64(agg.stats.ShardFanout) / queries
	m["planner.shards_pruned_per_query"] = float64(agg.stats.ShardsPruned) / queries
	m["engine.stage_sum_ratio"] = 0
	if tracedWall > 0 {
		m["engine.stage_sum_ratio"] = stageSum / tracedWall
	}
	m["core.filter_us"] = median(filterUS)
	m["core.verify_us"] = median(verifyUS)
	m["core.ns_per_posting"] = 0
	if agg.stats.PostingsScanned > 0 {
		m["core.ns_per_posting"] = float64(agg.stats.FilterTime.Nanoseconds()) / float64(agg.stats.PostingsScanned)
	}
	m["core.lists_probed_per_query"] = float64(agg.stats.ListsProbed) / queries
	m["core.postings_per_query"] = float64(agg.stats.PostingsScanned) / queries
	m["core.candidates_per_query"] = float64(agg.stats.Candidates) / queries
	m["core.verify_hit_ratio"] = 0
	if agg.stats.Candidates > 0 {
		m["core.verify_hit_ratio"] = float64(agg.stats.Results) / float64(agg.stats.Candidates)
	}

	// Twins, built for the traced run only and replayed at the lib.query rung:
	// what four shards cost over one, and compressed-mapped postings over raw.
	twins := []struct {
		metric string
		opts   []seal.Option
	}{
		{"engine.shard_tax_ratio", []seal.Option{seal.WithShards(1), seal.WithCompression(seal.CompressionQuantized)}},
		{"invidx.compressed_tax_ratio", []seal.Option{seal.WithShards(4)}},
	}
	for _, tw := range twins {
		twin, err := seal.Build(e.objects, tw.opts...)
		if err != nil {
			return err
		}
		us, _, _, err := replayPlain(twin, reqs)
		_ = twin.Close() // in-memory: a no-op
		if err != nil {
			return fmt.Errorf("%s twin: %w", tw.metric, err)
		}
		m[tw.metric] = m["lib.query_us"] / median(us)
	}
	return nil
}
