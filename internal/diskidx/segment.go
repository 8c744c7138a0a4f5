package diskidx

// SEALIDX2: a sealed-segment format whose on-disk layout IS the in-memory
// layout of package invidx, so a segment can be mmap-ed and probed in place —
// opening an index becomes a page-table operation instead of a rebuild, and
// the OS page cache decides which posting pages stay resident.
//
// A segment is a section container (container.go) whose three header counts
// are nLists, nPostings and nObjs — the exclusive upper bound for posting
// object IDs — and whose flags are
//
//	bit0  dual bounds
//	bit1  compressed postings: always set; a file with it clear is stale (the
//	      retired raw layout of float64 bounds)
//	bit2  retired: a file carrying it is stale (the old float64 fallback)
//	bit3  object IDs take 2 bytes (clear: 4)
//
// It opens with its key column. Every key is a (group, node) pair — a token
// list's (token, 0), a grid list's (row, column), a hybrid-hash list's
// (token, cell) or (bucket, 0), a Seal list's (token, grid node) — stored as
//
//	runs   uint64 words        where each group's nodes start, unary-coded
//	nodes  uint32 × nLists     the keys' low words, ascending inside a run
//
// The postings follow, always compressed:
//
//	offs   uint64 words        where each list starts, in rows, unary-coded
//	blob   nPostings rows, list after list; invidx/compress.go has the
//	       columns of a list, whose length is its extent
//
// Sections 2–5 (starts/objs/bounds/tbounds) were the raw layout's flat
// arenas and are retired with it. Sections 1 (a uint64 key a list) and 6 (an
// open-addressed directory of two uint32 slots a list over them) were the
// key column of the token, grid and hybrid-hash kinds, 16 bytes a list, and
// are retired too: a file carrying either is of an earlier generation.
//
// Both offset tables are invidx.Extents: a bit set at vᵢ + i for each offset
// vᵢ, so a table costs a bit an entry plus a bit a row (or a node). A
// compressed list's metadata is its node + 1 bit in each table — a bit a
// group and a bit a posting besides. Version 3 stored both tables as uint32
// arrays — 8 bytes a Seal list and 4 a token — and its exact layout as a
// count and varint objects; version 2 spent 12 and 20 — a full key a list in
// every segment, its high word never read by the Seal filter, and a posting
// count and quantization steps inside every list — and version 1 spent 24 to
// 32: a counts section beside offs, and a directory rounded up to a power of
// two.
//
// Every section is CRC-checked at open, then handed to the invidx arena
// validators, so a segment that opens cleanly satisfies every structural
// invariant the query path relies on.

import (
	"fmt"

	"github.com/sealdb/seal/internal/invidx"
)

var magic2 = [8]byte{'S', 'E', 'A', 'L', 'I', 'D', 'X', '2'}

// segVersion 4 is the layout above. An earlier version's file has no reader;
// it opens as ErrStaleVersion, which the engine reports as a directory of
// another layout generation (rebuild) rather than as a damaged shard
// (quarantine). So does a version-4 file of a retired layout: one with bit 2,
// written by the float64 fallback that saturating bound codes replaced, one
// with bit 1 clear, the raw float64 arenas, or one with a key array or key
// directory section.
const (
	segVersion        = 4
	segFlagDual       = 1 << 0
	segFlagCompressed = 1 << 1
	segFlagRetired    = 1 << 2
	segFlagObj16      = 1 << 3
)

// Section identifiers. 1 and 6 are retired (the key array and its
// directory), as are 2–5 (the raw layout's starts, objs, bounds and tbounds)
// and 8 (version 1's per-list posting counts).
const (
	secKeys  = 1  // retired: a file carrying it is stale
	secDir   = 6  // retired: a file carrying it is stale
	secOffs  = 7  // extent table words: nLists extents of the blob's rows
	secBlob  = 9  // nPostings fixed-width rows
	secRuns  = 10 // extent table words: one extent of nodes a group
	secNodes = 11 // uint32 × nLists, the keys' low words
)

// wrapCorrupt rebrands an invidx validation failure as a diskidx corruption
// error so callers test one sentinel for any malformed segment.
func wrapCorrupt(err error) error {
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

// WriteSegment serializes a compressed index (single- or dual-bound) as a
// SEALIDX2 segment at path. objects is the exclusive upper bound for posting
// object IDs, recorded in the header so OpenMapped can validate postings
// without the dataset.
func WriteSegment(path string, ix *invidx.Compressed, objects int) error {
	if objects < 0 || int64(objects) > 1<<32 {
		return fmt.Errorf("diskidx: object count %d out of range", objects)
	}
	a := ix.Arenas()
	flags := uint32(segFlagCompressed)
	if a.Layout.Obj16 {
		flags |= segFlagObj16
	}
	if a.Dual {
		flags |= segFlagDual
	}
	secs := []section{
		{id: secRuns, data: u64Bytes(a.Runs)},
		{id: secNodes, data: u32Bytes(a.Nodes)},
		{id: secOffs, data: u64Bytes(a.Extents)},
		{id: secBlob, data: a.Blob},
	}
	return writeContainer(path, magic2, segVersion, flags,
		[3]uint64{uint64(ix.Lists()), uint64(ix.Postings()), uint64(objects)}, secs)
}

// takeKeys returns the key column of a segment of nLists lists: its run table
// and nodes. A file with the retired key array or directory is stale.
func takeKeys(c *container, nLists int64) (k invidx.KeyArenas, err error) {
	for _, id := range []uint32{secKeys, secDir} {
		if _, ok := c.views[id]; ok {
			return k, fmt.Errorf("%w: %w (retired key section %d)", ErrCorrupt, ErrStaleVersion, id)
		}
	}
	runs, err := c.take(secRuns, -1, 8)
	if err != nil {
		return k, err
	}
	nodes, err := c.take(secNodes, nLists, 4)
	return invidx.KeyArenas{Runs: viewU64(runs), Nodes: viewU32(nodes)}, err
}

// Segment is an open SEALIDX2 segment. The posting data lives in the mapped
// (or fallback-loaded) file bytes; the index Source returns aliases those
// pages, so it must not be probed after Close.
type Segment struct {
	closer  func() error
	objects int
	src     *invidx.Compressed
}

// OpenMapped memory-maps the segment at path and wraps it as an invidx
// probe source. The whole file is validated up front — header geometry
// against the actual file size, per-section CRCs, then the invidx arena
// invariants — so a segment that opens cleanly cannot fail structurally at
// probe time. On platforms or filesystems where mmap fails the file is read
// into memory instead.
func OpenMapped(path string) (*Segment, error) {
	data, closer, err := mapPath(path)
	if err != nil {
		return nil, err
	}
	seg, err := openSegment(data)
	if err != nil {
		closer()
		return nil, err
	}
	seg.closer = closer
	return seg, nil
}

func openSegment(data []byte) (*Segment, error) {
	c, err := parseContainer(data, magic2, segVersion)
	if err != nil {
		return nil, err
	}
	flags := c.flags
	if flags&^(segFlagDual|segFlagCompressed|segFlagRetired|segFlagObj16) != 0 {
		return nil, fmt.Errorf("%w: unknown segment flags %#x", ErrCorrupt, flags)
	}
	if flags&(segFlagCompressed|segFlagRetired) != segFlagCompressed {
		return nil, fmt.Errorf("%w: %w (float64 posting bounds, flags %#x)", ErrCorrupt, ErrStaleVersion, flags)
	}
	// The header's counts size later multiplications and allocations, so
	// cap them against what the file could possibly hold before use: a list
	// costs at least its 4-byte node and a posting at least 4 (checked
	// exactly per list by the validators).
	size := uint64(len(data))
	if c.counts[0] > size/4 || c.counts[1] > size/4 || c.counts[2] > 1<<32 {
		return nil, fmt.Errorf("%w: header counts exceed file size", ErrCorrupt)
	}
	nLists, nPostings, objects := int64(c.counts[0]), int(c.counts[1]), int(c.counts[2])
	keys, err := takeKeys(c, nLists)
	if err != nil {
		return nil, err
	}
	offs, err := c.take(secOffs, -1, 8)
	if err != nil {
		return nil, err
	}
	blob, err := c.take(secBlob, -1, 1)
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	ix, err := invidx.CompressedFromArenas(invidx.CompressedArenas{
		KeyArenas: keys,
		Dual:      flags&segFlagDual != 0,
		Extents:   viewU64(offs),
		Blob:      blob,
		Layout:    invidx.Layout{Obj16: flags&segFlagObj16 != 0},
	}, nPostings, objects)
	if err != nil {
		return nil, wrapCorrupt(err)
	}
	return &Segment{objects: objects, src: ix}, nil
}

// Source returns the segment's postings; their Dual method tells the flavour
// the file recorded.
func (s *Segment) Source() *invidx.Compressed { return s.src }

// Objects returns the exclusive upper bound for posting object IDs recorded
// at write time.
func (s *Segment) Objects() int { return s.objects }

// Close unmaps the segment. Probing any source obtained from it afterwards
// is invalid. Close is idempotent.
func (s *Segment) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c()
}
