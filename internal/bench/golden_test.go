package bench

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/sealdb/seal/internal/core"
)

// goldenBaselines pins, at smoke scale (SmokeConfig, seed 42), what the §2.3
// baselines and the plain Sig-Filters of Figure 3 do on every query of both
// workloads over both datasets at τ = 0.1 and τ = 0.4: each row is the
// filter's SizeBytes, its candidate, probed-list and scanned-posting totals,
// and an FNV-1a digest of the per-query (candidates, lists, postings)
// triples. The IR-tree's probed lists are its node visits, so its row also
// pins the tree's shape. sealbench's candidates table rounds these figures;
// this test does not.
var goldenBaselines = map[string]string{
	"twitter/irtree":     "size=490112 cands=360 lists=5524 postings=14688 digest=3974e817f453da04",
	"twitter/keyword":    "size=788552 cands=301 lists=990 postings=328538 digest=edf5bae8d70a236f",
	"twitter/spatial":    "size=167456 cands=3117 lists=100 postings=18318 digest=9b14cfdd4ed9a315",
	"twitter/plaintoken": "size=788552 cands=14530 lists=990 postings=328538 digest=8fb848d1fa3e1d21",
	"twitter/plaingrid":  "size=78284 cands=15599 lists=164 postings=38018 digest=8d20c14de0586320",
	"usa/irtree":         "size=441984 cands=41 lists=3990 postings=3008 digest=37dd374dbabd8605",
	"usa/keyword":        "size=678628 cands=503 lists=954 postings=323230 digest=6803594c5af74280",
	"usa/spatial":        "size=167456 cands=24 lists=100 postings=4294 digest=641e8e020f633ff3",
	"usa/plaintoken":     "size=678628 cands=15034 lists=954 postings=323230 digest=ab3771c5d577bd78",
	"usa/plaingrid":      "size=64840 cands=2848 lists=236 postings=13324 digest=5b4aabfdb1520d03",
}

func TestGoldenBaselines(t *testing.T) {
	env := smokeEnv(t)
	specs := []FilterSpec{
		{Kind: "irtree"},
		{Kind: "keyword"},
		{Kind: "spatial"},
		{Kind: "plaintoken"},
		{Kind: "plaingrid", P: 1024},
	}
	for _, dsName := range []string{"twitter", "usa"} {
		ds, err := env.Dataset(dsName)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			f, err := env.Filter(dsName, spec)
			if err != nil {
				t.Fatal(err)
			}
			s := core.NewSearcher(ds, f)
			h := fnv.New64a()
			var cands, lists, postings int
			for _, kind := range []string{"large", "small"} {
				queries, err := env.Workload(dsName, kind)
				if err != nil {
					t.Fatal(err)
				}
				for _, tau := range []float64{0.1, 0.4} {
					for _, qs := range queries {
						q, err := qs.Compile(ds, tau, tau)
						if err != nil {
							t.Fatal(err)
						}
						_, st := s.Search(q, nil, 0)
						fmt.Fprintf(h, "%d,%d,%d;", st.Candidates, st.ListsProbed, st.PostingsScanned)
						cands += st.Candidates
						lists += st.ListsProbed
						postings += st.PostingsScanned
					}
				}
			}
			key := dsName + "/" + spec.Kind
			got := fmt.Sprintf("size=%d cands=%d lists=%d postings=%d digest=%016x",
				f.SizeBytes(), cands, lists, postings, h.Sum64())
			if want := goldenBaselines[key]; got != want {
				t.Errorf("%s:\n got %s\nwant %s", key, got, want)
			}
		}
	}
}
