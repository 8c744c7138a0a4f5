package seal_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/server"
)

// workCounts is the summed filter work and answer size of one query set.
type workCounts struct{ Lists, Postings, Candidates, Matches int }

// goldenWorkCounts are the exact counts of every served method × shard count
// × query shape over gen.Twitter{N: 3000, Seed: 42}, summed over 40 queries a
// shape (query seed 7): the benchmark's three threshold shapes — τ 0.4 on
// large regions, τ 0.02 on small ones, τ 0.005 on large regions widened to
// 1500 km² — a top-10 ranked request at α 0.5 on large regions, and an
// arrival-ordered stream of τ 0.005 large-region queries cut at 10 matches.
// The counts are a function of the index and the queries alone: a change to
// how lists are stored or scanned must leave every one of them where it is,
// and a change that means to move them re-records the table and says why. The
// one exception is a sharded stream, whose work depends on which shard the
// goroutine schedule lets reach the tenth match first: only its match count
// is pinned, and its other counts read zero.
var goldenWorkCounts = map[string]workCounts{
	"seal/shards=1/thin":          {101, 93, 36, 3},
	"seal/shards=1/scan":          {469, 3785, 2473, 32},
	"seal/shards=1/fat":           {1744, 16197, 2511, 2185},
	"seal/shards=1/topk":          {849, 5911, 1162, 58},
	"seal/shards=1/stream":        {717, 1419, 567, 248},
	"seal/shards=4/thin":          {88, 80, 28, 3},
	"seal/shards=4/scan":          {577, 3750, 2424, 32},
	"seal/shards=4/fat":           {2344, 16212, 2461, 2185},
	"seal/shards=4/topk":          {1148, 5848, 1129, 58},
	"seal/shards=4/stream":        {0, 0, 0, 248},
	"token/shards=1/thin":         {126, 1315, 1227, 3},
	"token/shards=1/scan":         {471, 76720, 56654, 32},
	"token/shards=1/fat":          {264, 58561, 48006, 2185},
	"token/shards=1/topk":         {241, 30712, 27124, 58},
	"token/shards=1/stream":       {246, 42279, 35576, 248},
	"token/shards=4/thin":         {199, 782, 699, 3},
	"token/shards=4/scan":         {821, 40992, 29904, 32},
	"token/shards=4/fat":          {488, 30487, 25268, 2185},
	"token/shards=4/topk":         {446, 17626, 15463, 58},
	"token/shards=4/stream":       {0, 0, 0, 248},
	"grid/shards=1/thin":          {91, 3797, 1993, 3},
	"grid/shards=1/scan":          {43, 7603, 7353, 32},
	"grid/shards=1/fat":           {146, 13560, 6633, 2185},
	"grid/shards=1/topk":          {109, 10115, 4963, 58},
	"grid/shards=1/stream":        {81, 4960, 4013, 248},
	"grid/shards=4/thin":          {127, 3786, 2012, 3},
	"grid/shards=4/scan":          {58, 7601, 7351, 32},
	"grid/shards=4/fat":           {200, 13584, 6638, 2185},
	"grid/shards=4/topk":          {155, 10105, 4984, 58},
	"grid/shards=4/stream":        {0, 0, 0, 248},
	"hybrid-hash/shards=1/thin":   {188, 509, 337, 3},
	"hybrid-hash/shards=1/scan":   {471, 11664, 8917, 32},
	"hybrid-hash/shards=1/fat":    {495, 7145, 5221, 2185},
	"hybrid-hash/shards=1/topk":   {399, 3819, 2856, 58},
	"hybrid-hash/shards=1/stream": {415, 4065, 3626, 248},
	"hybrid-hash/shards=4/thin":   {365, 263, 190, 3},
	"hybrid-hash/shards=4/scan":   {884, 9214, 6604, 32},
	"hybrid-hash/shards=4/fat":    {943, 5724, 3868, 2185},
	"hybrid-hash/shards=4/topk":   {795, 2907, 2046, 58},
	"hybrid-hash/shards=4/stream": {0, 0, 0, 248},
}

// workCountMethods are the four served methods: Seal, token and grid at their
// defaults, and the hybrid hash filter hashed, so that its buckets mix
// (token, cell) pairs.
var workCountMethods = []struct {
	name string
	opts []seal.Option
}{
	{"seal", []seal.Option{seal.WithMethod(seal.MethodSeal)}},
	{"token", []seal.Option{seal.WithMethod(seal.MethodTokenFilter)}},
	{"grid", []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(1024)}},
	{"hybrid-hash", []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithGranularity(256), seal.WithHashBuckets(4093)}},
}

// TestGoldenWorkCounts runs every method, shard count and shape of
// goldenWorkCounts and compares the summed lists probed, postings scanned,
// candidates and matches with the committed ones. Any difference fails: a
// rise is lost pruning, and a fall is a selection change that must be
// recorded on purpose.
func TestGoldenWorkCounts(t *testing.T) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 3000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	objects := server.SnapshotObjects(ds)
	shape := func(cfg gen.QueryConfig, tau float64, k int) []seal.Request {
		specs, err := gen.Queries(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]seal.Request, len(specs))
		for i, s := range specs {
			r := seal.Request{
				Region: seal.Rect{MinX: s.Region.MinX, MinY: s.Region.MinY, MaxX: s.Region.MaxX, MaxY: s.Region.MaxY},
				Tokens: s.Terms,
				TauR:   tau, TauT: tau,
			}
			if k > 0 {
				r.TauR, r.TauT, r.K, r.Alpha = 0, 0, k, 0.5
			}
			reqs[i] = r
		}
		return reqs
	}
	const n, seed = 40, 7
	wide := gen.LargeRegionConfig(n, seed)
	wide.MeanArea = 1500
	shapes := []struct {
		name   string
		reqs   []seal.Request
		stream bool
	}{
		{"thin", shape(gen.LargeRegionConfig(n, seed), 0.4, 0), false},
		{"scan", shape(gen.SmallRegionConfig(n, seed), 0.02, 0), false},
		{"fat", shape(wide, 0.005, 0), false},
		{"topk", shape(gen.LargeRegionConfig(n, seed), 0, 10), false},
		{"stream", shape(gen.LargeRegionConfig(n, seed), 0.005, 0), true},
	}
	ctx := context.Background()
	got := map[string]workCounts{}
	var keys []string
	for _, m := range workCountMethods {
		for _, shards := range []int{1, 4} {
			ix, err := seal.Build(objects, append(m.opts, seal.WithShards(shards))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shapes {
				var sum workCounts
				for _, req := range sh.reqs {
					var st seal.Stats
					matches := 0
					if sh.stream {
						for _, err := range ix.Stream(ctx, req, seal.Limit(10), seal.StatsInto(&st)) {
							if err != nil {
								t.Fatal(err)
							}
							matches++
						}
					} else {
						res, err := ix.Query(ctx, req, seal.CollectStats())
						if err != nil {
							t.Fatal(err)
						}
						st, matches = *res.Stats, len(res.Matches)
					}
					sum.Lists += st.ListsProbed
					sum.Postings += st.PostingsScanned
					sum.Candidates += st.Candidates
					sum.Matches += matches
				}
				if sh.stream && shards > 1 {
					sum.Lists, sum.Postings, sum.Candidates = 0, 0, 0
				}
				key := fmt.Sprintf("%s/shards=%d/%s", m.name, shards, sh.name)
				got[key] = sum
				keys = append(keys, key)
			}
			ix.Close()
		}
	}
	var table strings.Builder
	for _, key := range keys {
		c := got[key]
		fmt.Fprintf(&table, "\t%q: {%d, %d, %d, %d},\n", key, c.Lists, c.Postings, c.Candidates, c.Matches)
		if want, ok := goldenWorkCounts[key]; !ok || want != c {
			t.Errorf("%s: lists/postings/candidates/matches %d/%d/%d/%d, want %d/%d/%d/%d",
				key, c.Lists, c.Postings, c.Candidates, c.Matches, want.Lists, want.Postings, want.Candidates, want.Matches)
		}
	}
	if t.Failed() {
		t.Logf("measured table:\n%s", table.String())
	}
}
