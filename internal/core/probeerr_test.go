package core_test

// Probe-failure degradation: a filter whose storage fails to decode must
// stay complete — it floods the candidate set and lets exact verification
// keep the answers bit-identical — and must surface the failure through
// FilterStats.ProbeErrors.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
)

// failingSource wraps a Source and fails every probe after trip.
type failingSource struct {
	invidx.Source
	calls int
	trip  int
}

func (s *failingSource) Probe(key uint64, scr *invidx.ListScratch) (invidx.List, error) {
	s.calls++
	if s.calls > s.trip {
		return invidx.List{}, invidx.ErrCorrupt
	}
	return s.Source.Probe(key, scr)
}

// requireFlood checks that broken, a searcher over failing storage, answers
// every query exactly as healthy does, by way of a reported probe error and a
// full flood of the candidate set.
func requireFlood(t *testing.T, label string, ds *model.Dataset, queries []*model.Query, healthy, broken *core.Searcher) {
	t.Helper()
	for qi, q := range queries {
		want, _ := healthy.Search(q)
		got, stats := broken.Search(q)
		if stats.ProbeErrors == 0 {
			t.Fatalf("%s query %d: probe failure not reported in stats", label, qi)
		}
		if stats.Candidates != ds.Len() {
			t.Fatalf("%s query %d: %d candidates, want full flood of %d", label, qi, stats.Candidates, ds.Len())
		}
		if len(got) != len(want) {
			t.Fatalf("%s query %d: %d matches, want %d", label, qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s query %d match %d: %+v, want %+v", label, qi, i, got[i], want[i])
			}
		}
	}
}

func TestProbeErrorFloodsCandidates(t *testing.T) {
	ds := allocDataset(t, 300)
	queries := allocQueries(t, ds, 6)

	healthy := core.NewSearcher(ds, core.NewTokenFilter(ds))
	src, spec, _ := core.Postings(core.NewTokenFilter(ds))
	for _, trip := range []int{0, 1} { // fail the first probe, or mid-scan
		f, err := core.OpenFilter(ds, spec, &failingSource{Source: src, trip: trip})
		if err != nil {
			t.Fatal(err)
		}
		requireFlood(t, fmt.Sprintf("trip %d", trip), ds, queries, healthy, core.NewSearcher(ds, f))
	}
}

// strayingSource wraps a Source and, after trip calls, sends every At past the
// end of the index — what a locator derived from damaged keys would do. The
// error is the wrapped layout's own.
type strayingSource struct {
	invidx.Source
	calls int
	trip  int
}

func (s *strayingSource) At(i int, scr *invidx.ListScratch) (invidx.List, error) {
	s.calls++
	if s.calls > s.trip {
		i += s.Lists()
	}
	return s.Source.At(i, scr)
}

// TestStrayPositionFloodsCandidates: the Seal filter reaches its lists by
// position, and a position that names no list is a corrupt probe on every
// layout — raw, compressed, and a mapped segment — never a panic and never a
// neighbouring list. Collect floods, and answers do not move.
func TestStrayPositionFloodsCandidates(t *testing.T) {
	ds := allocDataset(t, 300)
	queries := allocQueries(t, ds, 6)
	seal, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 6, GridBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	healthy := core.NewSearcher(ds, seal)
	raw, spec, _ := core.Postings(seal)
	compressed := invidx.Compress(raw.(*invidx.Index))
	path := filepath.Join(t.TempDir(), "seal.seg")
	if err := diskidx.WriteSegment(path, compressed, ds.Len()); err != nil {
		t.Fatal(err)
	}
	seg, err := diskidx.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	sources := map[string]invidx.Source{"raw": raw, "compressed": compressed, "mapped": seg.Source()}
	for name, src := range sources {
		var scr invidx.ListScratch
		for _, i := range []int{-1, src.Lists(), src.Lists() + 1} {
			if l, err := src.At(i, &scr); !errors.Is(err, invidx.ErrCorrupt) || l.Len() != 0 {
				t.Fatalf("%s: At(%d) = %d postings, err %v; want ErrCorrupt", name, i, l.Len(), err)
			}
		}
		for _, trip := range []int{0, 1} { // stray on the first list, or mid-scan
			f, err := core.OpenFilter(ds, spec, &strayingSource{Source: src, trip: trip})
			if err != nil {
				t.Fatal(err)
			}
			requireFlood(t, fmt.Sprintf("%s trip %d", name, trip), ds, queries, healthy, core.NewSearcher(ds, f))
		}
	}
}
