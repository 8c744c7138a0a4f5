package diskidx

// The dataset segment: everything of a segment directory that is not a
// posting list — the objects' regions and token sets, the vocabulary with its
// weights, the multi-region footprints and the shard partition — as one
// section container whose per-object sections ARE model.Dataset's columns.
// Opening it maps the file and views those columns in place: no decoding, no
// re-interning, and no per-object allocation. Only the vocabulary (one heap
// copy of the term blob, its offset and weight tables and the term→ID map)
// and what model.FromColumns derives are rebuilt on the heap, so terms handed
// to callers never alias the mapping.
//
// Header counts are nObjects, nTokens (the token arena's length) and nTerms;
// flags carry the spatial similarity function in bits 0–7 and the textual one
// in bits 8–15. The file is outside input until it has opened: geometry and
// checksums are checked by the container, every structural invariant by
// model.FromColumns and checkPartition, and any violation is ErrCorrupt.

import (
	"fmt"
	"slices"

	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

var magicDataset = [8]byte{'S', 'E', 'A', 'L', 'D', 'S', 'E', 'T'}

const datasetVersion = 1

// Dataset section identifiers.
const (
	dsecRegions    = 1  // rect × nObjects
	dsecTokOff     = 2  // uint32 × nObjects+1, offsets into the token arena
	dsecTokIDs     = 3  // uint32 × nTokens, ascending within each object
	dsecTerms      = 4  // the vocabulary's terms back to back
	dsecTermOff    = 5  // uint32 × nTerms+1, offsets into the term blob
	dsecWeights    = 6  // float64 × nTerms
	dsecParts      = 7  // uint32 × nObjects, the shards' object IDs back to back
	dsecPartOff    = 8  // uint32 × shards+1, offsets into the parts
	dsecMultiIDs   = 9  // uint32 per multi-region object, ascending
	dsecMultiOff   = 10 // uint32 × multi-region objects+1
	dsecMultiRects = 11 // rect, the footprints back to back
)

// WriteDataset serializes ds and the shard partition as a dataset segment at
// path, crash-safely (see writeContainer). parts[i] lists shard i's objects
// in ascending order; a single nil part is the one-shard identity.
func WriteDataset(path string, ds *model.Dataset, parts [][]model.ObjectID) error {
	c, err := ds.Columns()
	if err != nil {
		return fmt.Errorf("diskidx: %w", err)
	}
	flat := make([]uint32, 0, ds.Len())
	partOff := make([]uint32, 1, len(parts)+1)
	for _, p := range parts {
		if p == nil && len(parts) == 1 {
			for i := 0; i < ds.Len(); i++ {
				flat = append(flat, uint32(i))
			}
		}
		flat = append(flat, u32sOf(p)...)
		partOff = append(partOff, uint32(len(flat)))
	}
	secs := []section{
		{id: dsecRegions, data: rectBytes(c.Regions)},
		{id: dsecTokOff, data: u32Bytes(c.TokOff)},
		{id: dsecTokIDs, data: u32Bytes(u32sOf(c.TokIDs))},
		{id: dsecTerms, data: []byte(c.Terms)},
		{id: dsecTermOff, data: u32Bytes(c.TermOff)},
		{id: dsecWeights, data: f64Bytes(c.Weights)},
		{id: dsecParts, data: u32Bytes(flat)},
		{id: dsecPartOff, data: u32Bytes(partOff)},
		{id: dsecMultiIDs, data: u32Bytes(u32sOf(c.MultiIDs))},
		{id: dsecMultiOff, data: u32Bytes(c.MultiOff)},
		{id: dsecMultiRects, data: rectBytes(c.MultiRects)},
	}
	flags := uint32(c.SpatialSim) | uint32(c.TextualSim)<<8
	counts := [3]uint64{uint64(len(c.Regions)), uint64(len(c.TokIDs)), uint64(len(c.Weights))}
	return writeContainer(path, magicDataset, datasetVersion, flags, counts, secs)
}

// DatasetSegment is an open dataset segment. Its dataset's per-object
// columns and its partition alias the mapped (or fallback-loaded) file bytes,
// so neither may be used after Close.
type DatasetSegment struct {
	closer func() error
	ds     *model.Dataset
	parts  [][]model.ObjectID
}

// OpenDataset memory-maps the dataset segment at path and validates all of
// it, so a segment that opens cleanly cannot fail structurally later.
func OpenDataset(path string) (*DatasetSegment, error) {
	data, closer, err := mapPath(path)
	if err != nil {
		return nil, err
	}
	seg, err := openDataset(data)
	if err != nil {
		closer()
		return nil, err
	}
	seg.closer = closer
	return seg, nil
}

func openDataset(data []byte) (*DatasetSegment, error) {
	c, err := parseContainer(data, magicDataset, datasetVersion)
	if err != nil {
		return nil, err
	}
	if c.flags&^0xffff != 0 {
		return nil, fmt.Errorf("%w: unknown dataset flags %#x", ErrCorrupt, c.flags)
	}
	// The counts size the multiplications below: an object costs at least a
	// 32-byte region, a token and a term at least 4 bytes.
	size := uint64(len(data))
	if c.counts[0] > size/32 || c.counts[1] > size/4 || c.counts[2] > size/4 {
		return nil, fmt.Errorf("%w: header counts exceed file size", ErrCorrupt)
	}
	nObjects, nTokens, nTerms := int64(c.counts[0]), int64(c.counts[1]), int64(c.counts[2])

	var bad error
	take := func(id uint32, n int64, width int) []byte {
		v, err := c.take(id, n, width)
		if err != nil && bad == nil {
			bad = err
		}
		return v
	}
	cols := model.Columns{
		Regions:    viewRects(take(dsecRegions, nObjects, 32)),
		TokOff:     viewU32(take(dsecTokOff, nObjects+1, 4)),
		TokIDs:     idsOf[text.TokenID](viewU32(take(dsecTokIDs, nTokens, 4))),
		Terms:      string(take(dsecTerms, -1, 1)),
		TermOff:    slices.Clone(viewU32(take(dsecTermOff, nTerms+1, 4))),
		Weights:    slices.Clone(viewF64(take(dsecWeights, nTerms, 8))),
		MultiIDs:   idsOf[model.ObjectID](viewU32(take(dsecMultiIDs, -1, 4))),
		MultiOff:   viewU32(take(dsecMultiOff, -1, 4)),
		MultiRects: viewRects(take(dsecMultiRects, -1, 32)),
		SpatialSim: model.SpatialSim(c.flags),
		TextualSim: model.TextualSim(c.flags >> 8),
	}
	flat := idsOf[model.ObjectID](viewU32(take(dsecParts, nObjects, 4)))
	partOff := viewU32(take(dsecPartOff, -1, 4))
	if bad != nil {
		return nil, bad
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	ds, err := model.FromColumns(cols)
	if err != nil {
		return nil, wrapCorrupt(err)
	}
	parts, err := checkPartition(flat, partOff)
	if err != nil {
		return nil, err
	}
	return &DatasetSegment{ds: ds, parts: parts}, nil
}

// checkPartition slices the flat partition into its parts after checking
// that they are non-empty, strictly ascending, and together a permutation of
// [0, len(flat)). A one-shard partition is therefore the identity and comes
// back as a single nil part, the engine's spelling of it.
func checkPartition(flat []model.ObjectID, off []uint32) ([][]model.ObjectID, error) {
	shards := len(off) - 1
	if shards < 1 || off[0] != 0 || int(off[shards]) != len(flat) {
		return nil, fmt.Errorf("%w: partition offsets do not span the objects", ErrCorrupt)
	}
	seen := make([]bool, len(flat))
	parts := make([][]model.ObjectID, shards)
	for i := range parts {
		lo, hi := off[i], off[i+1]
		if lo >= hi || int(hi) > len(flat) {
			return nil, fmt.Errorf("%w: shard %d has an empty or inverted partition", ErrCorrupt, i)
		}
		part := flat[lo:hi:hi]
		for j, id := range part {
			if int(id) >= len(flat) || seen[id] || (j > 0 && id <= part[j-1]) {
				return nil, fmt.Errorf("%w: shard %d partition is not ascending, distinct object IDs", ErrCorrupt, i)
			}
			seen[id] = true
		}
		parts[i] = part
	}
	if shards == 1 {
		parts[0] = nil
	}
	return parts, nil
}

// Dataset returns the dataset the segment stores.
func (s *DatasetSegment) Dataset() *model.Dataset { return s.ds }

// Parts returns the shard partition: parts[i] lists shard i's object IDs in
// ascending order, except that a one-shard partition is a single nil part.
func (s *DatasetSegment) Parts() [][]model.ObjectID { return s.parts }

// Close unmaps the segment. The dataset and partition obtained from it must
// not be used afterwards. Close is idempotent.
func (s *DatasetSegment) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c()
}
