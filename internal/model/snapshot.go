package model

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/text"
)

// Snapshot is a portable, self-contained representation of a dataset used by
// the CLI tools to persist generated workloads. Token weights are not stored:
// they are recomputed from document counts on load, so a snapshot round-trip
// reproduces the dataset exactly (idf is a pure function of the corpus).
type Snapshot struct {
	Terms      []string              // vocabulary, indexed by TokenID
	Regions    []geo.Rect            // object MBRs
	Tokens     [][]uint32            // per-object sorted term indices
	Multi      map[uint32][]geo.Rect // multi-region footprints, if any
	SpatialSim uint8
	TextualSim uint8
}

// Snapshot exports the dataset.
func (ds *Dataset) Snapshot() *Snapshot {
	s := &Snapshot{
		Terms:      make([]string, ds.vocab.Len()),
		Regions:    make([]geo.Rect, ds.Len()),
		Tokens:     make([][]uint32, ds.Len()),
		SpatialSim: uint8(ds.spatialSim),
		TextualSim: uint8(ds.textualSim),
	}
	for i := range s.Terms {
		s.Terms[i] = ds.vocab.Term(text.TokenID(i))
	}
	for i := range s.Regions {
		id := ObjectID(i)
		s.Regions[i] = ds.Region(id)
		set := ds.Tokens(id)
		out := make([]uint32, len(set))
		for j, t := range set {
			out[j] = uint32(t)
		}
		s.Tokens[i] = out
		if multi := ds.MultiRegion(id); multi != nil {
			if s.Multi == nil {
				s.Multi = make(map[uint32][]geo.Rect)
			}
			s.Multi[uint32(i)] = append([]geo.Rect(nil), multi...)
		}
	}
	return s
}

// FromSnapshot rebuilds a dataset, recomputing idf weights from the corpus.
func FromSnapshot(s *Snapshot) (*Dataset, error) {
	if len(s.Regions) != len(s.Tokens) {
		return nil, fmt.Errorf("model: snapshot has %d regions but %d token sets", len(s.Regions), len(s.Tokens))
	}
	var b Builder
	b.SetSimilarity(SpatialSim(s.SpatialSim), TextualSim(s.TextualSim))
	terms := make([]string, 0, 32)
	for i, r := range s.Regions {
		terms = terms[:0]
		for _, idx := range s.Tokens[i] {
			if int(idx) >= len(s.Terms) {
				return nil, fmt.Errorf("model: snapshot object %d references term %d outside vocabulary", i, idx)
			}
			terms = append(terms, s.Terms[idx])
		}
		if set, ok := s.Multi[uint32(i)]; ok {
			if _, err := b.AddMulti(set, terms); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := b.Add(r, terms); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// WriteSnapshot serializes the dataset to w with gob encoding.
func (ds *Dataset) WriteSnapshot(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(ds.Snapshot()); err != nil {
		return fmt.Errorf("model: encoding snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot deserializes a dataset from r.
func ReadSnapshot(r io.Reader) (*Dataset, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("model: decoding snapshot: %w", err)
	}
	return FromSnapshot(&s)
}
