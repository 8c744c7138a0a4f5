package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	seal "github.com/sealdb/seal"
)

// Config sizes one serving daemon. The zero value is not useful; start from
// DefaultConfig and override. cmd/sealserver exposes every field as a flag
// and can preload the whole struct from a JSON file (flags win).
type Config struct {
	// Addr is the HTTP listen address, e.g. ":8080" or "127.0.0.1:0".
	Addr string `json:"addr"`

	// DataPath is a sealgen dataset file to index. Optional when SegmentDir
	// holds a complete sealed-segment directory (the daemon then boots
	// purely from disk).
	DataPath string `json:"data"`
	// SegmentDir is the sealed-segment directory: when it matches the
	// configuration the index is memory-mapped instead of rebuilt, and a
	// fresh build is saved into it for the next boot.
	SegmentDir string `json:"segments"`

	// Method selects the filter family, one of MethodNames. Default "seal".
	Method string `json:"method"`
	// Granularity is the grid granularity P for grid/hybrid. Default 1024.
	Granularity int `json:"granularity"`
	// Shards is the spatial shard count. Default 1.
	Shards int `json:"shards"`

	// Warmup runs this many synthetic queries (built from indexed objects,
	// so they touch real posting lists) before /readyz flips to ready,
	// faulting mmap pages in ahead of traffic. 0 disables warmup.
	Warmup int `json:"warmup"`

	// RequestTimeout bounds one request's execution; the engine observes
	// the deadline mid-search. 0 means no per-request deadline.
	RequestTimeout time.Duration `json:"-"`
	// MaxInFlight caps concurrently executing /v1/* requests; excess
	// requests are rejected with 429 rather than queued without bound.
	// 0 means unlimited.
	MaxInFlight int `json:"max_in_flight"`
	// MaxBatch caps the query count of one /v1/query/batch call. 0 means
	// the default of 256.
	MaxBatch int `json:"max_batch"`
	// ShutdownGrace bounds the drain of in-flight requests on SIGINT or
	// SIGTERM before the listener is torn down regardless.
	ShutdownGrace time.Duration `json:"-"`
	// SlowQuery is the slow-query threshold: requests at or over it are
	// counted and flagged in the query log, whose every line carries the
	// query's stats. 0 disables slow-query telemetry.
	SlowQuery time.Duration `json:"-"`
	// AllowPartial serves degraded answers: a query that loses a shard —
	// quarantined at boot, erroring, panicking, or (with ShardTimeout)
	// timing out — returns the remaining shards' exact matches with HTTP
	// 206 and "degraded": true instead of failing. Off by default: a strict
	// daemon never passes a partial answer off as a complete one.
	AllowPartial bool `json:"allow_partial"`
	// ShardTimeout bounds one shard's search per query; a shard exceeding
	// it is dropped from the merge like a failed shard. Requires
	// AllowPartial. 0 disables the per-shard bound.
	ShardTimeout time.Duration `json:"-"`
	// Pprof mounts Go's /debug/pprof/* profiling endpoints on the serving
	// mux. Off by default: profiles expose internals and cost CPU to sample.
	Pprof bool `json:"pprof"`
}

// DefaultConfig is the daemon's baseline configuration.
var DefaultConfig = Config{
	Addr:           ":8080",
	Method:         "seal",
	Granularity:    1024,
	Shards:         1,
	RequestTimeout: 10 * time.Second,
	MaxInFlight:    256,
	MaxBatch:       256,
	ShutdownGrace:  15 * time.Second,
}

// fileConfig mirrors Config for the JSON config file, with durations as
// strings ("500ms", "10s") so operators write them naturally.
type fileConfig struct {
	Config
	RequestTimeout string `json:"request_timeout"`
	ShutdownGrace  string `json:"shutdown_grace"`
	SlowQuery      string `json:"slow_query"`
	ShardTimeout   string `json:"shard_timeout"`
}

// LoadConfig reads a JSON config file over base (typically DefaultConfig):
// absent fields keep base's values. Unknown keys are an error so typos
// surface at boot, not as silently-default behavior.
func LoadConfig(path string, base Config) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("server: %w", err)
	}
	fc := fileConfig{Config: base}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return base, fmt.Errorf("server: parsing %s: %w", path, err)
	}
	cfg := fc.Config
	for _, f := range []struct {
		key, text string
		d         *time.Duration
	}{
		{"request_timeout", fc.RequestTimeout, &cfg.RequestTimeout},
		{"shutdown_grace", fc.ShutdownGrace, &cfg.ShutdownGrace},
		{"slow_query", fc.SlowQuery, &cfg.SlowQuery},
		{"shard_timeout", fc.ShardTimeout, &cfg.ShardTimeout},
	} {
		if f.text == "" {
			continue
		}
		d, err := time.ParseDuration(f.text)
		if err != nil {
			return base, fmt.Errorf("server: %s: %s: %w", path, f.key, err)
		}
		*f.d = d
	}
	if err := cfg.Validate(); err != nil {
		return base, err
	}
	return cfg, nil
}

// Validate rejects configurations the daemon cannot serve.
func (c Config) Validate() error {
	if c.DataPath == "" && c.SegmentDir == "" {
		return fmt.Errorf("server: need a dataset file or a segment directory")
	}
	if _, err := MethodOptions(c.Method, c.Granularity); err != nil {
		return err
	}
	if c.Granularity < 1 {
		return fmt.Errorf("server: granularity %d < 1", c.Granularity)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("server: negative warmup %d", c.Warmup)
	}
	if c.MaxInFlight < 0 || c.MaxBatch < 0 {
		return fmt.Errorf("server: negative concurrency limits")
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("server: negative request timeout %v", c.RequestTimeout)
	}
	if c.ShutdownGrace < 0 {
		return fmt.Errorf("server: negative shutdown grace %v", c.ShutdownGrace)
	}
	if c.SlowQuery < 0 {
		return fmt.Errorf("server: negative slow-query threshold %v", c.SlowQuery)
	}
	if c.ShardTimeout < 0 {
		return fmt.Errorf("server: negative shard timeout %v", c.ShardTimeout)
	}
	if c.ShardTimeout > 0 && !c.AllowPartial {
		return fmt.Errorf("server: shard_timeout requires allow_partial (a strict query has nothing to drop a timed-out shard to)")
	}
	return nil
}

// MethodNames lists the filter methods the daemon serves, as Config.Method
// and the -method flags of sealserver and sealquery spell them.
const MethodNames = "seal|token|grid|hybrid"

// MethodOptions returns the Build options that select the named method, one
// of MethodNames; granularity is the grid granularity P of grid and hybrid.
func MethodOptions(name string, granularity int) ([]seal.Option, error) {
	switch name {
	case "seal":
		return []seal.Option{seal.WithMethod(seal.MethodSeal)}, nil
	case "token":
		return []seal.Option{seal.WithMethod(seal.MethodTokenFilter)}, nil
	case "grid":
		return []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(granularity)}, nil
	case "hybrid":
		return []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithGranularity(granularity)}, nil
	}
	return nil, fmt.Errorf("server: unknown method %q (%s)", name, MethodNames)
}

// maxBatch resolves the batch cap.
func (c Config) maxBatch() int {
	if c.MaxBatch == 0 {
		return 256
	}
	return c.MaxBatch
}
