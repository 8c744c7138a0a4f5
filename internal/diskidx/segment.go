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
//	bit1  compressed postings
//	bit2  retired: a file carrying it is stale (the old float64 fallback)
//	bit3  compressed only: object IDs take 2 bytes (clear: 4)
//
// It opens with its key column, in one of two forms. An index whose lists are
// looked up by key (the token, grid and hybrid-hash filters) has
//
//	keys   uint64 × nLists     ascending signature keys
//
// and ends with one more section, after the postings:
//
//	dir    uint32 × 2·nLists   open-addressed key directory, position+1
//
// (a reader takes dir when it is there, validated in full, and otherwise
// finds keys by binary search). The Seal filter's index, whose keys are
// (token, grid node) pairs and whose grid locator reaches every list by its
// position in one token's run of nodes, has instead
//
//	runs   uint64 words        where each token's nodes start, unary-coded
//	nodes  uint32 × nLists     the keys' low words, ascending inside a run
//
// The postings follow. A raw single-bound segment carries starts/objs/bounds;
// raw dual adds tbounds. A compressed segment carries
//
//	offs   uint64 words        where each list starts, in rows, unary-coded
//	blob   nPostings rows, list after list; invidx/compress.go has the
//	       columns of a list, whose length is its extent
//
// Both offset tables are invidx.Extents: a bit set at vᵢ + i for each offset
// vᵢ, so a table costs a bit an entry plus a bit a row (or a node). A
// compressed Seal list's metadata is its node + 1 bit in each table — a bit a
// token and a bit a posting besides — and a compressed keyed list's 16 bytes
// + 1 bit. Version 3 stored both tables as uint32 arrays — 8 bytes a Seal
// list and 4 a token — and its exact layout as a count and varint objects;
// version 2 spent 12 and 20 — a full key a list in every segment, its high
// word never read by the Seal filter, and a posting count and quantization
// steps inside every list — and version 1 spent 24 to 32: a counts section
// beside offs, and a directory rounded up to a power of two.
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
// (quarantine). So does a version-4 file with the retired bit 2, written by
// the float64 fallback that saturating bound codes replaced.
const (
	segVersion        = 4
	segFlagDual       = 1 << 0
	segFlagCompressed = 1 << 1
	segFlagRetired    = 1 << 2
	segFlagObj16      = 1 << 3
)

// Section identifiers. 8 is retired (version 1's per-list posting counts).
const (
	secKeys    = 1  // uint64 × nLists, ascending signature keys
	secStarts  = 2  // uint32 × nLists+1, flat list offsets
	secObjs    = 3  // uint32 × nPostings
	secBounds  = 4  // float64 × nPostings (spatial lane for dual)
	secTBounds = 5  // float64 × nPostings, raw dual only
	secDir     = 6  // uint32 slots of the open-addressed key directory
	secOffs    = 7  // extent table words: nLists extents of the blob's rows
	secBlob    = 9  // nPostings fixed-width rows
	secRuns    = 10 // extent table words: one extent of nodes a group
	secNodes   = 11 // uint32 × nLists, low words of the run-grouped keys
)

// wrapCorrupt rebrands an invidx validation failure as a diskidx corruption
// error so callers test one sentinel for any malformed segment.
func wrapCorrupt(err error) error {
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

// WriteSegment serializes an invidx index (*invidx.Index or
// *invidx.Compressed, single- or dual-bound) as a SEALIDX2 segment at path.
// objects is the exclusive upper bound for posting object IDs, recorded in the
// header so OpenMapped can validate postings without the dataset.
func WriteSegment(path string, idx invidx.Source, objects int) error {
	if objects < 0 || int64(objects) > 1<<32 {
		return fmt.Errorf("diskidx: object count %d out of range", objects)
	}
	var (
		secs  []section
		flags uint32
	)
	switch ix := idx.(type) {
	case *invidx.Index:
		secs = rawSections(ix.Arenas())
	case *invidx.Compressed:
		a := ix.Arenas()
		flags = compressedFlags(a.Layout)
		secs = compressedSections(a)
	default:
		return fmt.Errorf("diskidx: cannot write %T as a segment", idx)
	}
	if idx.Dual() {
		flags |= segFlagDual
	}
	return writeContainer(path, magic2, segVersion, flags,
		[3]uint64{uint64(idx.Lists()), uint64(idx.Postings()), uint64(objects)}, secs)
}

func rawSections(a invidx.RawArenas) []section {
	s := append(keySections(a.KeyArenas),
		section{id: secStarts, data: u32Bytes(a.Starts)},
		section{id: secObjs, data: u32Bytes(a.Objs)},
		section{id: secBounds, data: f64Bytes(a.Bounds)})
	if a.Dual {
		s = append(s, section{id: secTBounds, data: f64Bytes(a.TBounds)})
	}
	return appendDir(s, a.Slots)
}

// keySections opens a section list with the key column: runs and nodes for a
// run-grouped index, keys otherwise (whose directory, if any, goes last).
func keySections(k invidx.KeyArenas) []section {
	if k.Runs != nil {
		return []section{{id: secRuns, data: u64Bytes(k.Runs)}, {id: secNodes, data: u32Bytes(k.Nodes)}}
	}
	return []section{{id: secKeys, data: u64Bytes(k.Keys)}}
}

// appendDir adds the key directory's section for an index that carries one
// (nil slots: it does not).
func appendDir(s []section, slots []uint32) []section {
	if slots == nil {
		return s
	}
	return append(s, section{id: secDir, data: u32Bytes(slots)})
}

// takeKeys returns the key column of a segment of nLists lists: runs and nodes
// when it has a run table, and otherwise keys with the directory if that
// section is there. Runs and Slots say by not being nil that their section
// was, so the arena validators check even an empty one.
func takeKeys(c *container, nLists int64) (k invidx.KeyArenas, err error) {
	if _, ok := c.views[secRuns]; ok {
		runs, err := c.take(secRuns, -1, 8)
		if err != nil {
			return k, err
		}
		nodes, err := c.take(secNodes, nLists, 4)
		return invidx.KeyArenas{Runs: present(viewU64(runs)), Nodes: viewU32(nodes)}, err
	}
	keys, err := c.take(secKeys, nLists, 8)
	if err != nil {
		return k, err
	}
	k.Keys = viewU64(keys)
	if _, ok := c.views[secDir]; ok {
		dir, err := c.take(secDir, -1, 4)
		k.Slots = present(viewU32(dir))
		return k, err
	}
	return k, nil
}

// present marks a section as there even when it is empty.
func present[T any](v []T) []T {
	if v == nil {
		return []T{}
	}
	return v
}

func compressedFlags(l invidx.Layout) uint32 {
	flags := uint32(segFlagCompressed)
	if l.Obj16 {
		flags |= segFlagObj16
	}
	return flags
}

func compressedSections(a invidx.CompressedArenas) []section {
	return appendDir(append(keySections(a.KeyArenas),
		section{id: secOffs, data: u64Bytes(a.Extents)},
		section{id: secBlob, data: a.Blob}), a.Slots)
}

// Segment is an open SEALIDX2 segment. The posting data lives in the mapped
// (or fallback-loaded) file bytes; the view Source returns aliases those
// pages, so it must not be probed after Close.
type Segment struct {
	closer  func() error
	comp    bool
	objects int
	size    int64
	src     invidx.Source
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
	seg.size = int64(len(data))
	return seg, nil
}

func openSegment(data []byte) (*Segment, error) {
	c, err := parseContainer(data, magic2, segVersion)
	if err != nil {
		return nil, err
	}
	flags := c.flags
	if flags&segFlagRetired != 0 {
		return nil, fmt.Errorf("%w: %w (float64 posting bounds)", ErrCorrupt, ErrStaleVersion)
	}
	if flags&^(segFlagDual|segFlagCompressed|segFlagObj16) != 0 {
		return nil, fmt.Errorf("%w: unknown segment flags %#x", ErrCorrupt, flags)
	}
	if flags&segFlagCompressed == 0 && flags&segFlagObj16 != 0 {
		return nil, fmt.Errorf("%w: list layout flags %#x on a raw segment", ErrCorrupt, flags)
	}
	// The header's counts size later multiplications and allocations, so
	// cap them against what the file could possibly hold before use: a list
	// costs at least its 4-byte node and a posting, raw or compressed, at
	// least 4 (checked exactly per list by the validators).
	size := uint64(len(data))
	if c.counts[0] > size/4 || c.counts[1] > size/4 || c.counts[2] > 1<<32 {
		return nil, fmt.Errorf("%w: header counts exceed file size", ErrCorrupt)
	}
	nLists, nPostings, objects := int64(c.counts[0]), int64(c.counts[1]), int(c.counts[2])

	seg := &Segment{comp: flags&segFlagCompressed != 0, objects: objects}
	dual := flags&segFlagDual != 0
	keys, err := takeKeys(c, nLists)
	if err != nil {
		return nil, err
	}
	if seg.comp {
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
		a := invidx.CompressedArenas{
			KeyArenas: keys,
			Dual:      dual,
			Extents:   viewU64(offs),
			Blob:      blob,
			Layout:    invidx.Layout{Obj16: flags&segFlagObj16 != 0},
		}
		ix, err := invidx.CompressedFromArenas(a, int(nPostings), objects)
		if err != nil {
			return nil, wrapCorrupt(err)
		}
		seg.src = ix
		return seg, nil
	}

	starts, err := c.take(secStarts, nLists+1, 4)
	if err != nil {
		return nil, err
	}
	objs, err := c.take(secObjs, nPostings, 4)
	if err != nil {
		return nil, err
	}
	bounds, err := c.take(secBounds, nPostings, 8)
	if err != nil {
		return nil, err
	}
	a := invidx.RawArenas{
		KeyArenas: keys,
		Dual:      dual,
		Starts:    viewU32(starts),
		Objs:      viewU32(objs),
		Bounds:    viewF64(bounds),
	}
	if dual {
		tbounds, err := c.take(secTBounds, nPostings, 8)
		if err != nil {
			return nil, err
		}
		a.TBounds = viewF64(tbounds)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	ix, err := invidx.FromArenas(a, objects)
	if err != nil {
		return nil, wrapCorrupt(err)
	}
	seg.src = ix
	return seg, nil
}

// Source returns the segment's probe source; its Dual method tells the
// flavour the file recorded.
func (s *Segment) Source() invidx.Source { return s.src }

// Compressed reports whether the posting lists are stored encoded.
func (s *Segment) Compressed() bool { return s.comp }

// Objects returns the exclusive upper bound for posting object IDs recorded
// at write time.
func (s *Segment) Objects() int { return s.objects }

// FileSize returns the segment's on-disk size in bytes.
func (s *Segment) FileSize() int64 { return s.size }

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
