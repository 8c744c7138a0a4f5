package main

// One run of one workload: set up (dataset → segments → daemon → requests),
// gate on the oracle, drive the timed phases, read the daemon's vitals, shut
// it down cleanly, and — in a traced run — replay the ladder.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	seal "github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/server"
)

// datasetSeed is fixed: the corpus is the same on every run and --seed only
// drives the request streams. A corpus reseeded per run moves every metric by
// tens of percent (city sizes are heavy-tailed), which would drown the
// differences between commits that the benchmark exists to show.
const datasetSeed = 42

const (
	fullObjects  = 50000
	smokeObjects = 2000
	oracleSample = 32
	closedWins   = 3
	openWins     = 3
)

type config struct {
	serverBin string
	workDir   string // scratch space inside the checkout; removed at exit
	objects   int
	seed      int64
	seconds   float64
	trace     bool
	setupReps int      // full setups timed; the last one serves the run
	ladderCap int      // 0 = the workload's own ladder size
	spans     *spanLog // nil unless tracing
}

// smoke shrinks a configuration to the few-second drift check: a tiny corpus,
// one-second runs, one setup, and a short ladder.
func (c *config) smoke() {
	c.objects, c.seconds, c.setupReps = smokeObjects, 1, 1
	c.trace, c.ladderCap, c.spans = true, 100, newSpanLog()
}

type runResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // failures worth a line on stderr
}

// progress reports on stderr where a run's wall time goes.
func progress(start time.Time, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: %6.1fs  %s\n", time.Since(start).Seconds(), fmt.Sprintf(format, args...))
}

func (r *runResult) notef(format string, args ...any) {
	if len(r.notes) < 12 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// env is one completed setup.
type env struct {
	dir     string
	objects []seal.Object
	ix      *seal.Index // the in-memory build; the oracle reads weights from it
	segDir  string
	d       *daemon
	pool    []request

	datasetS, buildS, bootS, requestsS float64
	indexBytes                         int64
}

func (e *env) setupS() float64 { return e.datasetS + e.buildS + e.bootS + e.requestsS }

func buildOptions(segDir string) []seal.Option {
	return []seal.Option{
		seal.WithMethod(seal.MethodSeal), seal.WithShards(4),
		seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(segDir),
	}
}

func generateDataset(objects int) (*model.Dataset, []seal.Object, error) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: objects, Seed: datasetSeed})
	if err != nil {
		return nil, nil, err
	}
	return ds, server.SnapshotObjects(ds), nil
}

func setUp(cfg *config, w workload, dir string) (e *env, err error) {
	e = &env{dir: dir, segDir: filepath.Join(dir, "segments")}
	defer func() {
		if err != nil {
			e.cleanup()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return e, err
	}

	t := time.Now()
	ds, objects, err := generateDataset(cfg.objects)
	if err != nil {
		return e, err
	}
	e.objects = objects
	e.datasetS = time.Since(t).Seconds()

	t = time.Now()
	if e.ix, err = seal.Build(objects, buildOptions(e.segDir)...); err != nil {
		return e, err
	}
	e.buildS = time.Since(t).Seconds()
	if e.indexBytes, err = dirBytes(e.segDir); err != nil {
		return e, err
	}

	t = time.Now()
	if e.d, err = startDaemon(cfg.serverBin, e.segDir, dir); err != nil {
		return e, err
	}
	e.bootS = time.Since(t).Seconds()

	t = time.Now()
	n := w.pool
	if cfg.objects < fullObjects {
		n = max(n*cfg.objects/fullObjects, 400)
	}
	if e.pool, err = w.gen(ds, n, cfg.seed); err != nil {
		return e, err
	}
	e.requestsS = time.Since(t).Seconds()
	return e, nil
}

// cleanup releases whatever the setup still holds; safe after a clean stop.
func (e *env) cleanup() {
	if e.d != nil {
		select {
		case <-e.d.exited:
		default:
			e.d.kill()
		}
	}
	if e.ix != nil {
		_ = e.ix.Close() // an in-memory index closes to a no-op
	}
	_ = os.RemoveAll(e.dir) // scratch; the work dir is removed again at exit
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

const mib = 1 << 20

func runWorkload(cfg *config, w workload) (*runResult, error) {
	res := &runResult{correct: true, metrics: make(map[string]float64)}
	m := res.metrics
	start := time.Now()

	var e *env
	var setups []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if e != nil {
			err := e.d.stop()
			e.cleanup()
			if err != nil {
				return nil, err
			}
		}
		var err error
		if e, err = setUp(cfg, w, filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", w.name, rep))); err != nil {
			return nil, err
		}
		setups = append(setups, e.setupS())
		progress(start, "%s: setup %d/%d took %.2fs (dataset %.2f, build+save %.2f, boot %.2f, requests %.2f)",
			w.name, rep+1, cfg.setupReps, e.setupS(), e.datasetS, e.buildS, e.bootS, e.requestsS)
	}
	defer e.cleanup()
	m["setup_s"] = median(setups)
	m["gen.dataset_s"] = e.datasetS
	m["storage.build_s"] = e.buildS
	m["server.boot_s"] = e.bootS
	m["index_mb"] = float64(e.indexBytes) / mib
	m["storage.bytes_per_object"] = float64(e.indexBytes) / float64(len(e.objects))

	clients := newClients(e.d.base)
	defer closeClients(clients)

	orc, err := newOracle(e.objects, e.ix)
	if err != nil {
		return nil, err
	}
	oracleGate(res, orc, clients[0], e.pool, cfg.seed)
	progress(start, "%s: oracle gate done, %d of %d failed", w.name, res.failed, res.attempted)

	// The scan's tables and the in-memory build are dead weight from here on;
	// dropping them keeps the generator's own GC cycles short, so they do not
	// show up as arrival lateness.
	orc = nil
	_ = e.ix.Close() // in-memory: a no-op
	e.ix = nil
	if !cfg.trace {
		e.objects = nil // the traced run builds its twins from them
	}
	debug.FreeOSMemory()
	// What is left is a few tens of MB of requests; collecting it rarely costs
	// little memory and keeps the generator's collector out of the latencies.
	gcPercent := debug.SetGCPercent(800)
	err = timedPhases(cfg, w, e, clients, res)
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return nil, err
	}

	progress(start, "%s: timed phases done, %d of %d failed", w.name, res.failed, res.attempted)
	if m["rss_mb"], err = e.d.peakRSSMB(); err != nil {
		return nil, err
	}
	closeClients(clients)
	if err := e.d.stop(); err != nil {
		// A crash or a failed drain voids the workload: nothing it answered
		// can be trusted.
		res.notef("%v", err)
		res.correct = false
		res.failed = res.attempted
	}

	if cfg.trace {
		progress(start, "%s: daemon stopped, replaying the ladder", w.name)
		if err := runLadder(cfg, w, e, res); err != nil {
			return nil, err
		}
	}
	progress(start, "%s: done", w.name)
	return res, nil
}

// oracleGate replays a seeded sample of the pool against the daemon and
// compares every answer with the linear scan. A mismatch fails the run.
func oracleGate(res *runResult, orc *oracle, c *client, pool []request, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < oracleSample; i++ {
		r := &pool[rng.Intn(len(pool))]
		res.attempted++
		rep := c.do(r)
		err := r.validate(rep)
		if err == nil {
			err = checkAnswer(orc, r, rep.body)
		}
		if err != nil {
			res.failed++
			res.correct = false
			res.notef("oracle: %s %s: %v", r.kind, r.path, err)
		}
	}
}

// checkAnswer decodes one response body in full and hands it to the oracle.
func checkAnswer(orc *oracle, r *request, body []byte) error {
	type results struct {
		Matches []match `json:"matches"`
		Count   int     `json:"count"`
	}
	switch r.kind {
	case kindStream:
		var got []match
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if line == "" {
				continue
			}
			var m match
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				return fmt.Errorf("stream line %q: %w", line, err)
			}
			got = append(got, m)
		}
		return orc.check(r.reqs[0], got, r.limit)
	case kindBatch:
		var got struct {
			Results []struct {
				Results *results `json:"results"`
				Error   string   `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(r.reqs) {
			return fmt.Errorf("batch answered %d of %d queries", len(got.Results), len(r.reqs))
		}
		for i, br := range got.Results {
			if br.Results == nil {
				return fmt.Errorf("batch entry %d failed: %s", i, br.Error)
			}
			if err := orc.check(r.reqs[i], br.Results.Matches, 0); err != nil {
				return fmt.Errorf("batch entry %d: %w", i, err)
			}
		}
		return nil
	default:
		var got results
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Count != len(got.Matches) {
			return fmt.Errorf("count %d but %d matches", got.Count, len(got.Matches))
		}
		return orc.check(r.reqs[0], got.Matches, 0)
	}
}

// timedPhases runs warm → closed loop → open loop against the daemon. The
// run's seconds are split 2:9:12 so every run of a workload has the same
// shape whatever --seconds is.
func timedPhases(cfg *config, w workload, e *env, clients []*client, res *runResult) error {
	m := res.metrics
	unit := time.Duration(cfg.seconds / 23 * float64(time.Second))
	cur := &cursor{}

	scrape0, err := e.d.scrapeMetrics()
	if err != nil {
		return err
	}
	runClosed(clients, e.pool, cur, 2*unit) // warm: connections, pages, heap

	cpu0, err := e.d.cpuSeconds()
	if err != nil {
		return err
	}
	scrape1, err := e.d.scrapeMetrics()
	if err != nil {
		return err
	}
	closed := make([]loopStats, closedWins)
	for i := range closed {
		closed[i] = *runClosed(clients, e.pool, cur, 3*unit)
	}
	cpu1, err := e.d.cpuSeconds()
	if err != nil {
		return err
	}
	scrape2, err := e.d.scrapeMetrics()
	if err != nil {
		return err
	}

	perWindow := max(int(w.rate*(4*unit).Seconds()), 1)
	openStart := time.Now()
	open := runOpen(clients, e.pool, cur, w.rate, openWins, perWindow)
	openElapsed := time.Since(openStart)
	scrape3, err := e.d.scrapeMetrics()
	if err != nil {
		return err
	}

	closedOK, latSum := 0, 0.0
	for i := range closed {
		count(res, &closed[i])
		for _, us := range pick(closed[i].samples, latencyOf, nil) {
			latSum += us
			closedOK++
		}
	}
	var openAll loopStats
	for i := range open.windows {
		count(res, &open.windows[i])
		openAll.merge(&open.windows[i])
	}
	if closedOK == 0 {
		return errors.New("no request succeeded in the closed-loop phase")
	}

	m["qps"] = windowMedian(closed, func(w *loopStats) float64 { return float64(w.okCount()) / w.elapsed.Seconds() })
	m["closed.p50_us"] = windowMedian(closed, latencyPercentile(0.50, nil))
	m["closed.p99_us"] = windowMedian(closed, latencyPercentile(0.99, nil))
	m["cpu_us_per_req"] = (cpu1 - cpu0) * 1e6 / float64(closedOK)
	for k, v := range clocks(scrape1, scrape2, latSum/float64(closedOK)) {
		m[k] = v
	}

	m["latency_p50_us"] = windowMedian(open.windows, latencyPercentile(0.50, nil))
	m["latency_p99_us"] = windowMedian(open.windows, latencyPercentile(0.99, nil))
	m["tail.p999_us"] = 0
	if all := pick(openAll.samples, latencyOf, nil); len(all) >= 10000 {
		m["tail.p999_us"] = percentile(all, 0.999)
	}
	m["openloop.rate_rps"] = float64(len(openAll.samples)) / openElapsed.Seconds()
	m["openloop.late_p99_us"] = windowMedian(open.windows, func(w *loopStats) float64 {
		return percentile(pick(w.samples, func(s sample) time.Duration { return s.late }, nil), 0.99)
	})
	m["openloop.backlog_max"] = 0
	for _, b := range open.backlog {
		m["openloop.backlog_max"] = max(m["openloop.backlog_max"], float64(b))
	}
	m["server.rejected"] = scrape3["seal_requests_rejected_total"] - scrape0["seal_requests_rejected_total"]

	// Which shape moved: only mixed_shapes sends these kinds, so the figures
	// read 0 on the other workloads.
	for _, k := range []kind{kindTopK, kindStream, kindBatch} {
		m["shape."+k.String()+"_p50_us"] = windowMedian(open.windows, latencyPercentile(0.50, ofKind(k)))
		m["shape."+k.String()+"_p99_us"] = windowMedian(open.windows, latencyPercentile(0.99, ofKind(k)))
	}
	m["shape.stream_first_line_us"] = windowMedian(open.windows, func(w *loopStats) float64 {
		return median(pick(w.samples, func(s sample) time.Duration { return s.firstLine },
			func(s sample) bool { return s.firstLine > 0 }))
	})
	return nil
}

// count folds one window into the run's attempted/failed totals.
func count(res *runResult, w *loopStats) {
	res.attempted += len(w.samples)
	res.failed += len(w.samples) - w.okCount()
	for _, err := range w.errs {
		res.notef("request failed: %v", err)
	}
}
