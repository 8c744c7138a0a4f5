package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	seal "github.com/sealdb/seal"
)

func writeConfigFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seal.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigOverBase(t *testing.T) {
	path := writeConfigFile(t, `{
		"addr": ":9090",
		"segments": "/var/lib/seal/x",
		"shards": 4,
		"warmup": 32,
		"allow_partial": true,
		"request_timeout": "500ms",
		"shutdown_grace": "3s",
		"slow_query": "250ms",
		"shard_timeout": "40ms"
	}`)
	cfg, err := LoadConfig(path, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":9090" || cfg.Shards != 4 || cfg.Warmup != 32 || !cfg.AllowPartial {
		t.Fatalf("loaded config = %+v", cfg)
	}
	if cfg.RequestTimeout != 500*time.Millisecond || cfg.ShutdownGrace != 3*time.Second ||
		cfg.SlowQuery != 250*time.Millisecond || cfg.ShardTimeout != 40*time.Millisecond {
		t.Fatalf("durations = %v / %v / %v / %v", cfg.RequestTimeout, cfg.ShutdownGrace, cfg.SlowQuery, cfg.ShardTimeout)
	}
	// Absent fields keep base values.
	if cfg.Method != "seal" || cfg.MaxInFlight != DefaultConfig.MaxInFlight {
		t.Fatalf("base defaults lost: %+v", cfg)
	}
}

// TestLoadConfigRejectsUnknownKeys: a typo fails the load, and so does
// "compress", a key the daemon no longer has (every index is quantized).
func TestLoadConfigRejectsUnknownKeys(t *testing.T) {
	for _, key := range []string{"warmupp", "compress"} {
		path := writeConfigFile(t, `{"segments": "/x", "`+key+`": 3}`)
		if _, err := LoadConfig(path, DefaultConfig); err == nil || !strings.Contains(err.Error(), key) {
			t.Fatalf("unknown key %q not rejected: %v", key, err)
		}
	}
}

// TestLoadConfigRejectsBadDuration: every duration key refuses text that is
// not a duration, and the error names the key.
func TestLoadConfigRejectsBadDuration(t *testing.T) {
	for _, key := range []string{"request_timeout", "shutdown_grace", "slow_query", "shard_timeout"} {
		t.Run(key, func(t *testing.T) {
			path := writeConfigFile(t, `{"segments": "/x", "allow_partial": true, "`+key+`": "fast"}`)
			if _, err := LoadConfig(path, DefaultConfig); err == nil || !strings.Contains(err.Error(), key+":") {
				t.Fatalf("bad %s accepted or unnamed: %v", key, err)
			}
		})
	}
}

// TestMethodOptions: every name MethodNames lists builds an index of that
// method (grid and hybrid at the given granularity), and every other name —
// the paper's baselines included — is refused.
func TestMethodOptions(t *testing.T) {
	objs := make([]seal.Object, 64)
	for i := range objs {
		x, y := float64(i%8)*10, float64(i/8)*10
		objs[i] = seal.Object{
			Region: seal.Rect{MinX: x, MinY: y, MaxX: x + 5, MaxY: y + 5},
			Tokens: []string{[...]string{"a", "b", "c"}[i%3]},
		}
	}
	wants := map[string]string{
		"seal":   "Seal",
		"token":  "TokenFilter",
		"grid":   "GridFilter(8)",
		"hybrid": "HybridFilter(8)",
	}
	names := strings.Split(MethodNames, "|")
	if len(names) != len(wants) {
		t.Fatalf("MethodNames = %q, want the %d served methods", MethodNames, len(wants))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			opts, err := MethodOptions(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := seal.Build(objs, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if got := ix.Stats().Method; got != wants[name] {
				t.Fatalf("method %q builds %q, want %q", name, got, wants[name])
			}
		})
	}
	for _, name := range []string{"", "Seal", "scan", "keyword", "spatial", "irtree", "rtree"} {
		if _, err := MethodOptions(name, 8); err == nil {
			t.Errorf("method %q accepted", name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default+data", func(c *Config) { c.DataPath = "x.seg" }, true},
		{"segments-only", func(c *Config) { c.SegmentDir = "/x" }, true},
		{"no-source", func(c *Config) {}, false},
		{"bad-method", func(c *Config) { c.DataPath = "x"; c.Method = "rtree" }, false},
		{"bad-granularity", func(c *Config) { c.DataPath = "x"; c.Granularity = 0 }, false},
		{"negative-warmup", func(c *Config) { c.DataPath = "x"; c.Warmup = -1 }, false},
	}
	for _, tc := range cases {
		cfg := DefaultConfig
		tc.mutate(&cfg)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
