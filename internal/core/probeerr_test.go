package core_test

// Probe-failure degradation: a filter whose storage fails to decode must
// stay complete — it floods the candidate set and lets exact verification
// keep the answers bit-identical — and must surface the failure through
// FilterStats.ProbeErrors.

import (
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/invidx"
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
		broken := core.NewSearcher(ds, f)
		for qi, q := range queries {
			want, _ := healthy.Search(q)
			got, stats := broken.Search(q)
			if stats.ProbeErrors == 0 {
				t.Fatalf("trip %d query %d: probe failure not reported in stats", trip, qi)
			}
			if stats.Candidates != ds.Len() {
				t.Fatalf("trip %d query %d: %d candidates, want full flood of %d", trip, qi, stats.Candidates, ds.Len())
			}
			if len(got) != len(want) {
				t.Fatalf("trip %d query %d: %d matches, want %d", trip, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trip %d query %d match %d: %+v, want %+v", trip, qi, i, got[i], want[i])
				}
			}
		}
	}
}
