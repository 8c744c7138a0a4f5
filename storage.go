package seal

// Storage controls: mmap-backed sealed segments. See the "Storage" section of
// the package documentation for the format and the boot flow.

import (
	"fmt"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/engine"
)

// Compression once chose between a flat and a quantized posting layout.
//
// Deprecated: every index stores and serves quantized postings, in memory as
// in a segment directory, so there is nothing left to choose.
type Compression int

const (
	// Deprecated: ignored; see Compression.
	CompressionNone Compression = iota
	// Deprecated: ignored; see Compression.
	CompressionQuantized
)

// WithCompression does nothing.
//
// Deprecated: every index is quantized; see Compression.
func WithCompression(Compression) Option { return func(*options) {} }

// WithSegmentDir persists the index into dir as mmap-able sealed segments.
// When dir already holds segments built from the same objects (token weights
// included) and the same configuration, Build maps them instead of rebuilding
// — turning index boot into a page-table operation — and otherwise it builds
// in memory and (over)writes dir. See also Open, which boots purely from a
// segment directory.
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

// manifestMatches reports whether dir's manifest describes the index cfg would
// build over objects: the same filter configuration and shard count. The
// dataset fingerprint is checked when the directory opens.
func manifestMatches(m *engine.Manifest, cfg options, objects int) bool {
	return m.Filter == segmentSpec(cfg) && m.Shards == engine.ShardCount(cfg.shards, objects)
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
)

// String names the state for health endpoints and logs.
func (s ShardState) String() string { return engine.ShardState(s).String() }

// ShardHealth reports one shard's state and, for a quarantined shard, the
// error that sidelined it.
type ShardHealth struct {
	Shard int
	State ShardState
	Err   string
}

// Health reports every shard's state. Indexes built in memory report all
// shards serving; indexes opened from a damaged segment directory report
// which shards were quarantined, and why.
func (ix *Index) Health() []ShardHealth {
	eh := ix.eng.Health()
	out := make([]ShardHealth, len(eh))
	for i, h := range eh {
		out[i] = ShardHealth{Shard: h.Shard, State: ShardState(h.State), Err: h.Err}
	}
	return out
}

// Quarantined counts shards sidelined at open time. A non-zero count means
// default queries fail with ErrShardQuarantined until the index is rebuilt;
// AllowPartial queries serve the healthy shards.
func (ix *Index) Quarantined() int { return ix.eng.Quarantined() }

// Open boots an index from a segment directory previously populated by
// Build(WithSegmentDir(dir)). The dataset segment and every shard's postings
// are memory-mapped, so nothing is decoded and no signature generation runs.
// The returned index must be Closed when done.
//
// Open survives single-shard damage: abandoned temp files from an
// interrupted save are swept, every section's checksum is verified, and a
// shard whose segment is corrupt or missing is quarantined instead of failing
// the open — check Quarantined and Health for the outcome.
// Build(WithSegmentDir(dir)) over the same objects rebuilds and replaces a
// damaged directory.
// Damage that compromises the whole directory (no manifest, unreadable
// dataset segment, every shard bad) still fails with a sentinel
// error: ErrCorruptSegment, ErrManifestMismatch, or engine.ErrNoSegments
// unwrapped via errors.Is.
func Open(dir string) (*Index, error) {
	start := time.Now()
	eng, err := engine.OpenSegmentsWith(dir, nil, true)
	if err != nil {
		return nil, fmt.Errorf("seal: opening segments: %w", err)
	}
	return newIndex(eng.Root(), eng, dir, start, true), nil
}

// Close releases any memory-mapped segments backing the index. Afterwards
// Query, QueryBatch, Stream, Object and Similarity return
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
// built from the same objects under the same token weights. The serving layer exposes it so operators can
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
