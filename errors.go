package seal

// Sentinel errors for invalid requests, storage and degraded-mode failures.
// Errors returned by Open, Build(WithSegmentDir), and Query wrap these, so
// callers distinguish failure classes with errors.Is instead of matching
// message strings.

import (
	"errors"

	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/engine"
)

var (
	// ErrCorruptSegment reports on-disk index data that failed validation: a
	// checksum mismatch, a truncated or malformed section, or an unreadable
	// dataset segment. Open quarantines single-shard corruption;
	// this sentinel surfaces when the damage compromises the whole directory.
	ErrCorruptSegment = diskidx.ErrCorrupt

	// ErrManifestMismatch reports a segment directory that is intact but does
	// not belong to this index: a different dataset fingerprint or an
	// unsupported manifest version.
	ErrManifestMismatch = engine.ErrManifestMismatch

	// ErrShardQuarantined reports a query that needed a shard sidelined at
	// open time. Default queries return it so callers never mistake a partial
	// answer for a complete one; opting in with AllowPartial skips the shard
	// and marks the results Degraded instead.
	ErrShardQuarantined = engine.ErrShardQuarantined

	// ErrClosed reports a call on an index after Close (or one that Close
	// overtook before all its shard searches had started). An index opened
	// from a segment directory serves its dataset and postings out of mapped
	// files; once Close has unmapped them the index answers nothing.
	ErrClosed = engine.ErrClosed

	// ErrInvalidRequest reports a query rejected for its own content before
	// any search ran: a Request outside its documented ranges or with an
	// inverted Region, a negative Limit or Offset, a ShardTimeout without
	// AllowPartial, or OrderByScore on a threshold request. Retrying it
	// cannot succeed; the daemon answers it with HTTP 400.
	ErrInvalidRequest = errors.New("invalid request")
)
