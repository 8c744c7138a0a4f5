// Command sealserver is the production HTTP serving daemon: it boots a
// seal.Index — memory-mapping a sealed-segment directory when one matches,
// building (and saving) otherwise — and serves spatio-textual similarity
// queries until SIGINT/SIGTERM, draining in-flight requests before releasing
// the mapped segments.
//
// Endpoints:
//
//	POST /v1/query        one Request, JSON in/out
//	POST /v1/query/batch  many Requests, per-query results and errors
//	GET  /v1/stream       NDJSON, one record per match as it is verified
//	GET  /healthz         liveness (process up)
//	GET  /readyz          readiness (index open, warmup done, not draining)
//	GET  /metrics, /varz  Prometheus text format
//	GET  /v1/status       build info, dataset fingerprint, boot + serving facts
//
// Boot from a dataset file written by sealgen, persisting segments for the
// next boot:
//
//	sealserver -data twitter.seg -segments /var/lib/seal/twitter -addr :8080
//
// Boot purely from sealed segments (no dataset file, no indexing):
//
//	sealserver -segments /var/lib/seal/twitter -addr :8080
//
// -warmup N runs N synthetic queries (derived from indexed objects, so they
// touch live posting lists) before /readyz flips to ready, faulting mmap
// pages in ahead of traffic; warmup latency is logged and recorded under its
// own metrics label. -config FILE preloads every flag from a JSON file
// (explicit flags win).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/sealdb/seal/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "sealserver: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	base := server.DefaultConfig

	// -config loads first so explicit flags override the file; find it with
	// a throwaway scan because flag values must default to the loaded file's.
	configPath := ""
	for i, a := range os.Args[1:] {
		if a == "-config" || a == "--config" {
			if i+2 <= len(os.Args[1:]) {
				configPath = os.Args[i+2]
			}
		} else if v, ok := cutFlag(a, "config"); ok {
			configPath = v
		}
	}
	if configPath != "" {
		loaded, err := server.LoadConfig(configPath, base)
		if err != nil {
			return err
		}
		base = loaded
	}

	var (
		_            = flag.String("config", configPath, "JSON config file preloading every flag (flags win)")
		addr         = flag.String("addr", base.Addr, "HTTP listen address")
		dataPath     = flag.String("data", base.DataPath, "dataset file from sealgen (optional with -segments)")
		segments     = flag.String("segments", base.SegmentDir, "sealed-segment directory: mmap-boot when matching, save after building")
		method       = flag.String("method", base.Method, "filter method: "+server.MethodNames)
		granularity  = flag.Int("p", base.Granularity, "grid granularity for grid/hybrid")
		shards       = flag.Int("shards", base.Shards, "spatial shards searching in parallel")
		compress     = flag.Bool("compress", base.Compress, "store compressed posting lists (16-bit quantized bounds, fixed-width columns)")
		warmup       = flag.Int("warmup", base.Warmup, "synthetic queries run before /readyz flips (0 disables)")
		timeout      = flag.Duration("timeout", base.RequestTimeout, "per-request execution deadline (0 disables)")
		maxInflight  = flag.Int("max-inflight", base.MaxInFlight, "concurrent /v1/* request cap, 429 beyond it (0 = unlimited)")
		maxBatch     = flag.Int("max-batch", base.MaxBatch, "query cap for one /v1/query/batch call")
		grace        = flag.Duration("grace", base.ShutdownGrace, "shutdown drain deadline for in-flight requests")
		slowQuery    = flag.Duration("slow-query", base.SlowQuery, "slow-query threshold: offenders are counted, flagged in the query log, and trace-logged rate-limited (0 disables)")
		allowPartial = flag.Bool("allow-partial", base.AllowPartial, "serve degraded answers (HTTP 206) when a shard fails instead of failing the query")
		shardTimeout = flag.Duration("shard-timeout", base.ShardTimeout, "per-shard search deadline; a slow shard is dropped from the merge (requires -allow-partial, 0 disables)")
		pprofOn      = flag.Bool("pprof", base.Pprof, "mount /debug/pprof/* profiling endpoints")
		quietQueries = flag.Bool("no-query-log", false, "disable the per-request JSON log line on stderr")
	)
	flag.Parse()

	cfg := base
	cfg.Addr = *addr
	cfg.DataPath = *dataPath
	cfg.SegmentDir = *segments
	cfg.Method = *method
	cfg.Granularity = *granularity
	cfg.Shards = *shards
	cfg.Compress = *compress
	cfg.Warmup = *warmup
	cfg.RequestTimeout = *timeout
	cfg.MaxInFlight = *maxInflight
	cfg.MaxBatch = *maxBatch
	cfg.ShutdownGrace = *grace
	cfg.SlowQuery = *slowQuery
	cfg.AllowPartial = *allowPartial
	cfg.ShardTimeout = *shardTimeout
	cfg.Pprof = *pprofOn
	if err := cfg.Validate(); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "sealserver: ", log.LstdFlags|log.Lmicroseconds)
	logf := server.Logf(logger.Printf)

	ix, boot, err := server.Boot(cfg, logf)
	if err != nil {
		return err
	}
	defer ix.Close()
	st := ix.Stats()
	logf("index ready: %s, %d objects, %d shard(s), %.1f MB, boot=%s in %v, fingerprint=%s",
		st.Method, st.Objects, st.Shards, float64(st.IndexBytes)/(1<<20),
		boot.Source, boot.BootTime.Round(time.Millisecond), ix.Fingerprint())
	if boot.Quarantined > 0 {
		logf("WARNING: serving degraded: %d shard(s) quarantined (see /readyz and /v1/status)", boot.Quarantined)
	}

	var qlog *server.QueryLog
	if !*quietQueries {
		qlog = server.NewQueryLog(os.Stderr)
	}
	srv := server.New(ix, cfg, qlog)
	srv.SetBootInfo(boot)

	// Warmup faults mapped pages in before /readyz ever reports ready; a
	// failing warmup is a failing boot (the index is not behaving).
	if err := srv.RunWarmup(logf); err != nil {
		return err
	}
	srv.SetReady(true)

	httpSrv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain: flip /readyz so load
	// balancers stop routing, give in-flight requests the grace window,
	// tear the listener down, release the mapped segments.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logf("listening on %s", cfg.Addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err // listener died before any signal
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second ^C kills immediately
	logf("shutdown: draining in-flight requests (grace %v)", cfg.ShutdownGrace)
	srv.SetReady(false)

	shutdownCtx := context.Background()
	if cfg.ShutdownGrace > 0 {
		var cancel context.CancelFunc
		shutdownCtx, cancel = context.WithTimeout(shutdownCtx, cfg.ShutdownGrace)
		defer cancel()
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logf("shutdown: drain deadline hit, closing anyway: %v", err)
		httpSrv.Close()
	}
	if err := <-errCh; err != nil {
		return err
	}
	if err := ix.Close(); err != nil {
		return fmt.Errorf("closing index: %w", err)
	}
	logf("shutdown complete")
	return nil
}

// cutFlag extracts v from "-config=v" / "--config=v" forms.
func cutFlag(arg, name string) (string, bool) {
	for _, prefix := range []string{"-" + name + "=", "--" + name + "="} {
		if len(arg) > len(prefix) && arg[:len(prefix)] == prefix {
			return arg[len(prefix):], true
		}
	}
	return "", false
}
