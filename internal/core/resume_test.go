package core_test

// The resumed top-k descent against the restarting one it replaced (kept in
// restart_test.go): same rankings bit for bit, same complete prefixes
// observed round by round, same round stopped in.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/sealdb/seal/internal/baseline"
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
	"github.com/sealdb/seal/internal/text"
)

// descentRecord is what a descent shows its caller: the ranking and, round by
// round, the complete prefix it observed.
type descentRecord struct {
	ranked []core.ScoredMatch
	rounds [][]core.ScoredMatch
}

// record runs one descent with an Observe hook that copies every round's
// prefix and, when stopAfter > 0, a StopBelow that fires once stopAfter
// rounds have been observed.
func record(opts core.TopKOptions, stopAfter int, run func(core.TopKOptions) ([]core.ScoredMatch, error)) (descentRecord, error) {
	var rec descentRecord
	opts.Observe = func(complete []core.ScoredMatch) { rec.rounds = append(rec.rounds, slices.Clone(complete)) }
	if stopAfter > 0 {
		opts.StopBelow = func() float64 {
			if len(rec.rounds) >= stopAfter {
				return 2 // above every score: stop here
			}
			return -1
		}
	}
	var err error
	rec.ranked, err = run(opts)
	return rec, err
}

// resumeCase runs the resumed descent on s and the restarting one on oracle
// for the same request and fails t unless they agree exactly.
func resumeCase(t testing.TB, label string, s, oracle *core.Searcher, ds *model.Dataset, region geo.Rect, terms []string, opts core.TopKOptions, stopAfter int) descentRecord {
	t.Helper()
	q, err := ds.NewQuery(region, terms, 1, 1)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := record(opts, stopAfter, func(o core.TopKOptions) ([]core.ScoredMatch, error) {
		ranked, _, err := s.TopK(q, o, nil)
		return ranked, err
	})
	if err != nil {
		t.Fatalf("%s resumed: %v", label, err)
	}
	want, err := record(opts, stopAfter, func(o core.TopKOptions) ([]core.ScoredMatch, error) {
		return oracle.RestartTopK(region, terms, o)
	})
	if err != nil {
		t.Fatalf("%s restarted: %v", label, err)
	}
	if !slices.Equal(got.ranked, want.ranked) {
		t.Fatalf("%s: ranking\n%+v\nwant\n%+v", label, got.ranked, want.ranked)
	}
	if len(got.rounds) != len(want.rounds) {
		t.Fatalf("%s: %d rounds observed, want %d", label, len(got.rounds), len(want.rounds))
	}
	for r := range want.rounds {
		if !slices.Equal(got.rounds[r], want.rounds[r]) {
			t.Fatalf("%s round %d: observed\n%+v\nwant\n%+v", label, r, got.rounds[r], want.rounds[r])
		}
	}
	return want
}

// resumeFilters is every signature family and a paper baseline, which cannot
// resume and collects afresh each round.
func resumeFilters(ds *model.Dataset) ([]core.Filter, error) {
	filters := []core.Filter{core.NewTokenFilter(ds), baseline.NewKeywordFirst(ds)}
	for _, spec := range []core.FilterSpec{
		{Kind: "grid", P: 32},
		{Kind: "hybrid", P: 16},
		{Kind: "hybrid", P: 16, Buckets: 509},
		{Kind: "seal", MaxLevel: 6, GridBudget: 4},
	} {
		f, err := core.BuildFilter(ds, spec)
		if err != nil {
			return nil, err
		}
		filters = append(filters, f)
	}
	return filters, nil
}

// TestTopKResumeMatchesRestart: over every filter family, α ∈ {0, ½, 1}, the
// default and a low floor, K ∈ {1, 7, 50}, queries with unknown terms and
// with more known tokens than the accumulator's 64 bits, the resumed descent
// ranks, observes and stops exactly as the restarting one.
func TestTopKResumeMatchesRestart(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const vocab = 120
		ds, err := testutil.RandomDataset(rng, 300, vocab)
		if err != nil {
			t.Fatal(err)
		}
		type request struct {
			region geo.Rect
			terms  []string
		}
		var requests []request
		for qi := 0; qi < 10; qi++ {
			q, err := testutil.RandomQuery(rng, ds, vocab)
			if err != nil {
				t.Fatal(err)
			}
			var terms []string
			for _, tok := range q.Tokens {
				terms = append(terms, ds.Vocab().Term(tok))
			}
			if qi%2 == 0 {
				terms = append(terms, "unknown-term-a", "unknown-term-b")
			}
			requests = append(requests, request{q.Region, terms})
		}
		// Every term of the vocabulary: far past 64 known tokens.
		var all []string
		for i := 0; i < ds.Vocab().Len(); i++ {
			all = append(all, ds.Vocab().Term(text.TokenID(i)))
		}
		wide, err := ds.NewQuery(ds.Space(), all, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(wide.Tokens) <= 64 {
			t.Fatalf("seed %d: the wide query has %d known tokens, want > 64", seed, len(wide.Tokens))
		}
		requests = append(requests,
			request{geo.Rect{MinX: 200, MinY: 200, MaxX: 650, MaxY: 650}, all},
			request{ds.Region(3), append(slices.Clone(all), "unknown-term-a")})

		filters, err := resumeFilters(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range filters {
			// deep counts the descents that ranked something after more
			// than two rounds: the ones with earlier rounds to resume.
			deep := 0
			s, oracle := core.NewSearcher(ds, f), core.NewSearcher(ds, f)
			for ri, r := range requests {
				for _, alpha := range []float64{0, 0.5, 1} {
					for _, floor := range []float64{0, 0.01} {
						for _, k := range []int{1, 7, 50} {
							opts := core.TopKOptions{K: k, Alpha: alpha, FloorR: floor, FloorT: floor}
							label := fmt.Sprintf("seed %d %s request %d alpha=%g floor=%g k=%d", seed, f.Name(), ri, alpha, floor, k)
							if rec := resumeCase(t, label, s, oracle, ds, r.region, r.terms, opts, 0); len(rec.rounds) > 2 && len(rec.ranked) > 0 {
								deep++
							}
						}
					}
				}
				if len(r.terms) >= len(all) && s.Accumulated() {
					t.Fatalf("seed %d %s request %d: accumulator armed for %d known tokens", seed, f.Name(), ri, len(wide.Tokens))
				}
				// An external bound that stops both descents after one, two
				// or three rounds.
				for stopAfter := 1; stopAfter <= 3; stopAfter++ {
					opts := core.TopKOptions{K: 50, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
					label := fmt.Sprintf("seed %d %s request %d stop after %d", seed, f.Name(), ri, stopAfter)
					resumeCase(t, label, s, oracle, ds, r.region, r.terms, opts, stopAfter)
				}
			}
			if deep < 50 {
				t.Fatalf("seed %d %s: only %d deep descents", seed, f.Name(), deep)
			}
		}
	}
}

// fuzzTopK is FuzzTopKResume's fixed dataset and filters, built once.
var fuzzTopK = sync.OnceValues(func() (*model.Dataset, []core.Filter) {
	ds, err := testutil.RandomDataset(rand.New(rand.NewSource(26)), 200, 40)
	if err != nil {
		panic(err)
	}
	filters, err := resumeFilters(ds)
	if err != nil {
		panic(err)
	}
	return ds, filters
})

// FuzzTopKResume: for any α, floors, K, query rectangle and pick of terms
// (bit i of picks: vocabulary term i; bit 63: an unknown term), the resumed
// descent agrees with the restarting one on every filter.
func FuzzTopKResume(f *testing.F) {
	f.Add(uint8(128), uint8(0), uint8(0), uint8(9), uint16(10000), uint16(10000), uint16(40000), uint16(40000), uint64(0b1011), uint8(0))
	f.Add(uint8(0), uint8(3), uint8(3), uint8(0), uint16(0), uint16(0), uint16(65535), uint16(65535), uint64(1<<63|0xff), uint8(2))
	f.Add(uint8(255), uint8(1), uint8(200), uint8(49), uint16(30000), uint16(5000), uint16(31000), uint16(9000), uint64(0xffffffffff), uint8(1))
	f.Fuzz(func(t *testing.T, alpha, floorR, floorT, k uint8, x0, y0, x1, y1 uint16, picks uint64, stop uint8) {
		ds, filters := fuzzTopK()
		coord := func(v uint16) float64 { return float64(v) / 65535 * 1000 }
		region := geo.Rect{
			MinX: coord(min(x0, x1)), MinY: coord(min(y0, y1)),
			MaxX: coord(max(x0, x1)), MaxY: coord(max(y0, y1)),
		}
		var terms []string
		for i := 0; i < ds.Vocab().Len() && i < 63; i++ {
			if picks&(1<<i) != 0 {
				terms = append(terms, ds.Vocab().Term(text.TokenID(i)))
			}
		}
		if picks&(1<<63) != 0 {
			terms = append(terms, "unknown-term")
		}
		if _, err := ds.NewQuery(region, terms, 1, 1); err != nil {
			return // not a query: nothing to rank
		}
		opts := core.TopKOptions{
			K:      1 + int(k)%60,
			Alpha:  float64(alpha) / 255,
			FloorR: float64(floorR) / 255, // 0 takes the default
			FloorT: float64(floorT) / 255,
		}
		stopAfter := 0
		if stop%2 == 1 {
			stopAfter = 1 + int(stop/2)%4
		}
		for _, f := range filters {
			label := fmt.Sprintf("%s %+v region=%v terms=%v stop after %d", f.Name(), opts, region, terms, stopAfter)
			resumeCase(t, label, core.NewSearcher(ds, f), core.NewSearcher(ds, f), ds, region, terms, opts, stopAfter)
		}
	})
}
