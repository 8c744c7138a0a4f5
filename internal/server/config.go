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
	// Compress stores posting lists as fixed-width columns with quantized bounds.
	Compress bool `json:"compress"`

	// Warmup runs this many synthetic queries (built from indexed objects,
	// so they touch real posting lists) before /readyz flips to ready,
	// faulting mmap pages in ahead of traffic. 0 disables warmup.
	Warmup int `json:"warmup"`

	// RequestTimeout bounds one request's execution; the engine observes
	// the deadline mid-scatter. 0 means no per-request deadline.
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
	// counted, flagged in the query log, and (rate-limited) logged with their
	// full execution trace. 0 disables slow-query telemetry.
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
	if fc.RequestTimeout != "" {
		d, err := time.ParseDuration(fc.RequestTimeout)
		if err != nil {
			return base, fmt.Errorf("server: %s: request_timeout: %w", path, err)
		}
		cfg.RequestTimeout = d
	}
	if fc.ShutdownGrace != "" {
		d, err := time.ParseDuration(fc.ShutdownGrace)
		if err != nil {
			return base, fmt.Errorf("server: %s: shutdown_grace: %w", path, err)
		}
		cfg.ShutdownGrace = d
	}
	if fc.SlowQuery != "" {
		d, err := time.ParseDuration(fc.SlowQuery)
		if err != nil {
			return base, fmt.Errorf("server: %s: slow_query: %w", path, err)
		}
		cfg.SlowQuery = d
	}
	if fc.ShardTimeout != "" {
		d, err := time.ParseDuration(fc.ShardTimeout)
		if err != nil {
			return base, fmt.Errorf("server: %s: shard_timeout: %w", path, err)
		}
		cfg.ShardTimeout = d
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

// queryOpts returns the degraded-mode query options the configuration asks
// for, appended to every served query.
func (c Config) queryOpts() []seal.QueryOption {
	if !c.AllowPartial {
		return nil
	}
	opts := []seal.QueryOption{seal.AllowPartial()}
	if c.ShardTimeout > 0 {
		opts = append(opts, seal.ShardTimeout(c.ShardTimeout))
	}
	return opts
}

// maxBatch resolves the batch cap.
func (c Config) maxBatch() int {
	if c.MaxBatch == 0 {
		return 256
	}
	return c.MaxBatch
}
