package seal

// Storage controls: posting-list compression and mmap-backed sealed
// segments. See the "Storage" section of the package documentation for the
// format and the boot flow.

import (
	"fmt"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/engine"
)

// Compression selects the posting-list storage layout. Every setting returns
// bit-identical query answers; the
// quantized layout trades per-posting bound precision for size, which can
// only admit extra candidates that exact verification then rejects.
type Compression int

const (
	// CompressionNone keeps the flat fixed-width arena. Default.
	CompressionNone Compression = iota
	// CompressionQuantized stores every list as fixed-width columns and
	// nothing else: pruning bounds as 16-bit codes — the top bits of the
	// bound's float32, rounded up, so filtering stays a superset and answers
	// are unchanged — and object IDs at 2 or 4 bytes. Smallest; the recommended
	// setting. A bound above the largest finite code, about 3.396e38 —
	// possible only with token weights near 1e38 or coordinates near 1e19 —
	// saturates to the infinity code, which every threshold clears, so answers
	// stay exact there too.
	CompressionQuantized
)

// WithCompression re-encodes posting lists after the index is built. The
// default is CompressionNone.
func WithCompression(c Compression) Option {
	return func(o *options) { o.compression = c }
}

// WithSegmentDir persists the index into dir as mmap-able sealed segments.
// When dir already holds segments built from the same objects and the same
// configuration, Build maps them instead of rebuilding — turning index boot
// into a page-table operation — and otherwise it builds in memory and
// (over)writes dir. See also Open, which boots purely from a segment
// directory.
func WithSegmentDir(dir string) Option {
	return func(o *options) { o.segmentDir = dir }
}

// segmentSpec maps the configured method to the filter spec that builds it
// and that the manifest records. An unknown method maps to a spec
// core.BuildFilter rejects.
func segmentSpec(cfg options) core.FilterSpec {
	switch cfg.method {
	case MethodSeal:
		return core.FilterSpec{Kind: "seal", MaxLevel: cfg.maxLevel, GridBudget: cfg.gridBudget}
	case MethodTokenFilter:
		return core.FilterSpec{Kind: "token"}
	case MethodGridFilter:
		return core.FilterSpec{Kind: "grid", P: cfg.granularity}
	case MethodHybridHash:
		return core.FilterSpec{Kind: "hybrid", P: cfg.granularity, Buckets: max(cfg.hashBuckets, 0)}
	default:
		return core.FilterSpec{Kind: fmt.Sprintf("method %d", cfg.method)}
	}
}

// effectiveShards mirrors the engine's shard-count clamping.
func effectiveShards(cfg options, objects int) int {
	n := cfg.shards
	if n < 1 {
		n = 1
	}
	if n > objects {
		n = objects
	}
	return n
}

// manifestMatches reports whether dir's manifest describes exactly the index
// cfg would build over ds — same filter configuration, shard count,
// compression on/off, and dataset fingerprint.
func manifestMatches(m *engine.Manifest, cfg options, objects int) bool {
	return m.Filter == segmentSpec(cfg) &&
		m.Shards == effectiveShards(cfg, objects) &&
		m.Compressed == (cfg.compression != CompressionNone)
}

// OpenOption adjusts how Open treats a damaged segment directory.
type OpenOption func(*openConfig)

type openConfig struct {
	repair bool
}

// WithRepair makes Open rebuild a corrupt or missing shard from the dataset
// segment instead of quarantining it: the manifest records the filter
// configuration, so the shard's postings are regenerated in memory (exact, by
// construction) and its segment is best-effort re-saved. Opening is slower
// for the damaged shard — roughly its share of a full build — but the index
// comes up complete.
func WithRepair() OpenOption {
	return func(o *openConfig) { o.repair = true }
}

// ShardState classifies one shard's boot-time health.
type ShardState int

const (
	// ShardServing opened cleanly from its segment.
	ShardServing ShardState = iota
	// ShardQuarantined had a corrupt or missing segment and was sidelined:
	// it answers no queries. Default queries against an index with a
	// quarantined shard fail with ErrShardQuarantined; AllowPartial queries
	// skip it and mark the results Degraded.
	ShardQuarantined
	// ShardRebuilt had a corrupt or missing segment and was rebuilt from the
	// dataset segment (WithRepair). It serves exact answers.
	ShardRebuilt
)

// String names the state for health endpoints and logs.
func (s ShardState) String() string { return engine.ShardState(s).String() }

// ShardHealth reports one shard's state and, for quarantined or rebuilt
// shards, the error that sidelined it.
type ShardHealth struct {
	Shard int
	State ShardState
	Err   string
}

// Health reports every shard's state. Indexes built in memory report all
// shards serving; indexes opened from a damaged segment directory report
// which shards were quarantined or rebuilt, and why.
func (ix *Index) Health() []ShardHealth {
	eh := ix.eng.Health()
	out := make([]ShardHealth, len(eh))
	for i, h := range eh {
		out[i] = ShardHealth{Shard: h.Shard, State: ShardState(h.State), Err: h.Err}
	}
	return out
}

// Quarantined counts shards sidelined at open time. A non-zero count means
// default queries fail with ErrShardQuarantined until the index is repaired
// or rebuilt; AllowPartial queries serve the healthy shards.
func (ix *Index) Quarantined() int { return ix.eng.Quarantined() }

// Open boots an index from a segment directory previously populated by
// Build(WithSegmentDir(dir)). The dataset segment and every shard's postings
// are memory-mapped, so nothing is decoded and no signature generation runs.
// The returned index must be Closed when done.
//
// Open survives single-shard damage: abandoned temp files from an
// interrupted save are swept, every section's checksum is verified, and a
// shard whose segment is corrupt or missing is quarantined (or rebuilt, with
// WithRepair) instead of failing the open — check Health for the outcome.
// Damage that compromises the whole directory (no manifest, unreadable
// dataset segment, every shard bad) still fails with a sentinel
// error: ErrCorruptSegment, ErrManifestMismatch, or engine.ErrNoSegments
// unwrapped via errors.Is.
func Open(dir string, opts ...OpenOption) (*Index, error) {
	start := time.Now()
	var oc openConfig
	for _, o := range opts {
		o(&oc)
	}
	man, err := engine.ReadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("seal: opening segments: %w", err)
	}
	eng, _, err := engine.OpenSegmentsWith(dir, nil, engine.OpenOptions{Quarantine: true, Repair: oc.repair})
	if err != nil {
		return nil, fmt.Errorf("seal: opening segments: %w", err)
	}
	return newIndex(eng.Root(), eng, dir, start, true, man.Compressed), nil
}

// Close releases any memory-mapped segments backing the index. Afterwards
// Query, QueryBatch, Stream, Object, Footprint and Similarity return
// ErrClosed instead of touching unmapped pages (Fingerprint and TokenWeight,
// which return no error, report "" and false). Close is safe to call while
// any of them is in flight: calls already admitted run to completion first —
// as do the shard searches that returned queries left behind (a strict
// failure or an expired context abandons its stragglers) — and a call that
// Close overtakes reports ErrClosed rather than a partial answer.
// An index built purely in memory releases nothing but closes the same way.
// Close is idempotent.
func (ix *Index) Close() error { return ix.eng.Close() }

// Fingerprint returns the dataset content hash recorded in segment
// manifests: two indexes report the same fingerprint exactly when they were
// built from the same objects. The serving layer exposes it so operators can
// check which corpus a running daemon answers for. It hashes the (possibly
// mapped) dataset, so like every other read it is admitted against Close; a
// closed index has no fingerprint and reports "".
func (ix *Index) Fingerprint() string {
	if ix.eng.Enter() != nil {
		return ""
	}
	defer ix.eng.Exit()
	return engine.Fingerprint(ix.ds)
}

// segmentBytes sizes the segment directory for IndexStats; "" (no directory)
// and an unreadable one both report 0 — the figure is informational.
func segmentBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	n, _ := engine.DirBytes(dir)
	return n
}
