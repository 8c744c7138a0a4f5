package diskidx

// The dataset segment: everything of a segment directory that is not a
// posting list — the objects' regions and token sets, the vocabulary with its
// weights, the multi-region footprints, the row→ID column and the shard row
// bounds — as one section container whose per-object sections ARE
// model.Dataset's columns. Rows are in the engine's shard-major order, so
// shard i is rows [bounds[i], bounds[i+1]) and opening a shard slices the
// columns. Opening the segment maps the file and views those columns in
// place: no decoding, no re-interning, and no per-object allocation beyond
// the per-row weight sums. The ID column is read in place as well: its rows
// ascend by ID inside each shard, so a lookup by ID is a binary search per
// shard. The vocabulary reads its term blob, term-offset and weight sections
// in place too (text.Vocab.Term copies each term it hands out, so none
// aliases the mapping); only its lookup table and what model.FromColumns
// derives are built on the heap.
//
// Header counts are nObjects, nTokens (the token arena's length) and nTerms;
// flags carry the spatial similarity function in bits 0–7 and the textual one
// in bits 8–15. The file is outside input until it has opened: geometry and
// checksums are checked by the container, every structural invariant — the
// ID column a permutation of the rows among them — by model.FromColumns, the
// bounds by checkBounds, and any violation is ErrCorrupt.

import (
	"fmt"

	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

var magicDataset = [8]byte{'S', 'E', 'A', 'L', 'D', 'S', 'E', 'T'}

// datasetVersion 2 stores rows in shard-major order under a row→ID column
// and shard row bounds, the rows ascending by ID inside each shard; version 1
// stored them in ID order under partition lists and has no reader.
const datasetVersion = 2

// Dataset section identifiers.
const (
	dsecRegions    = 1  // rect × nObjects
	dsecTokOff     = 2  // uint32 × nObjects+1, offsets into the token arena
	dsecTokIDs     = 3  // uint32 × nTokens, ascending within each row
	dsecTerms      = 4  // the vocabulary's terms back to back
	dsecTermOff    = 5  // uint32 × nTerms+1, offsets into the term blob
	dsecWeights    = 6  // float64 × nTerms
	dsecIDs        = 7  // uint32 × nObjects, each row's object ID
	dsecBounds     = 8  // uint32 × shards+1, the shards' first rows and the end
	dsecMultiIDs   = 9  // uint32 per multi-region object, ascending IDs
	dsecMultiOff   = 10 // uint32 × multi-region objects+1
	dsecMultiRects = 11 // rect, the footprints back to back
)

// WriteDataset serializes ds and its shard row bounds as a dataset segment
// at path, crash-safely (see writeContainer). Shard i is rows
// [bounds[i], bounds[i+1]); a dataset in insertion order, which has no ID
// column, is written with the identity one.
func WriteDataset(path string, ds *model.Dataset, bounds []uint32) error {
	c, err := ds.Columns()
	if err != nil {
		return fmt.Errorf("diskidx: %w", err)
	}
	ids := u32sOf(c.IDs)
	if ids == nil {
		ids = make([]uint32, ds.Len())
		for i := range ids {
			ids[i] = uint32(i)
		}
	}
	secs := []section{
		{id: dsecRegions, data: rectBytes(c.Regions)},
		{id: dsecTokOff, data: u32Bytes(c.TokOff)},
		{id: dsecTokIDs, data: u32Bytes(u32sOf(c.TokIDs))},
		{id: dsecTerms, data: []byte(c.Terms)},
		{id: dsecTermOff, data: u32Bytes(c.TermOff)},
		{id: dsecWeights, data: f64Bytes(c.Weights)},
		{id: dsecIDs, data: u32Bytes(ids)},
		{id: dsecBounds, data: u32Bytes(bounds)},
		{id: dsecMultiIDs, data: u32Bytes(u32sOf(c.MultiIDs))},
		{id: dsecMultiOff, data: u32Bytes(c.MultiOff)},
		{id: dsecMultiRects, data: rectBytes(c.MultiRects)},
	}
	flags := uint32(c.SpatialSim) | uint32(c.TextualSim)<<8
	counts := [3]uint64{uint64(len(c.Regions)), uint64(len(c.TokIDs)), uint64(len(c.Weights))}
	return writeContainer(path, magicDataset, datasetVersion, flags, counts, secs)
}

// DatasetSegment is an open dataset segment. Its dataset's per-object
// columns and its bounds alias the mapped (or fallback-loaded) file bytes,
// so neither may be used after Close.
type DatasetSegment struct {
	closer func() error
	ds     *model.Dataset
	bounds []uint32
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
		IDs:        idsOf[model.ObjectID](viewU32(take(dsecIDs, nObjects, 4))),
		Terms:      viewString(take(dsecTerms, -1, 1)),
		TermOff:    viewU32(take(dsecTermOff, nTerms+1, 4)),
		Weights:    viewF64(take(dsecWeights, nTerms, 8)),
		MultiIDs:   idsOf[model.ObjectID](viewU32(take(dsecMultiIDs, -1, 4))),
		MultiOff:   viewU32(take(dsecMultiOff, -1, 4)),
		MultiRects: viewRects(take(dsecMultiRects, -1, 32)),
		SpatialSim: model.SpatialSim(c.flags),
		TextualSim: model.TextualSim(c.flags >> 8),
	}
	bounds := viewU32(take(dsecBounds, -1, 4))
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
	if err := checkBounds(bounds, cols.IDs); err != nil {
		return nil, err
	}
	return &DatasetSegment{ds: ds, bounds: bounds}, nil
}

// checkBounds checks that the shard row bounds start at row 0, ascend
// strictly — every shard non-empty — and end at the last row, and that the
// row→ID column ascends strictly inside every shard: a searcher answers in
// row order, and only that makes it ID order.
func checkBounds(bounds []uint32, ids []model.ObjectID) error {
	if len(bounds) < 2 || bounds[0] != 0 || int(bounds[len(bounds)-1]) != len(ids) {
		return fmt.Errorf("%w: shard bounds do not span the %d rows", ErrCorrupt, len(ids))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return fmt.Errorf("%w: shard %d is empty or inverted", ErrCorrupt, i-1)
		}
		for r := bounds[i-1] + 1; r < bounds[i]; r++ {
			if ids[r] <= ids[r-1] {
				return fmt.Errorf("%w: shard %d: row %d does not ascend by object ID", ErrCorrupt, i-1, r)
			}
		}
	}
	return nil
}

// Dataset returns the dataset the segment stores.
func (s *DatasetSegment) Dataset() *model.Dataset { return s.ds }

// Bounds returns the shard row bounds: shard i is the dataset's rows
// [bounds[i], bounds[i+1]).
func (s *DatasetSegment) Bounds() []uint32 { return s.bounds }

// Close unmaps the segment. The dataset and bounds obtained from it must
// not be used afterwards. Close is idempotent.
func (s *DatasetSegment) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c()
}
