package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

// TopK measures the top-k extension (threshold descent over complete
// filters) against the brute-force alternative (top-k over a full scan),
// for growing k. The point being demonstrated: the descent pays for a
// handful of filtered searches instead of scoring every object, so it
// inherits SEAL's pruning advantage.
func TopK(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Extension: top-k search via threshold descent (Twitter, alpha=0.5)")
	ds, err := env.Dataset("twitter")
	if err != nil {
		return err
	}
	sealFilter, err := env.Filter("twitter", FilterSpec{Kind: "seal"})
	if err != nil {
		return err
	}
	scanFilter, err := env.Filter("twitter", FilterSpec{Kind: "scan"})
	if err != nil {
		return err
	}
	for _, kind := range []string{"large", "small"} {
		specs, err := env.Workload("twitter", kind)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n(%s-region queries)\n", kind)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "k\tSeal (ms)\tScan (ms)\tavg results")
		for _, k := range []int{1, 10, 50} {
			opts := core.TopKOptions{K: k, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
			sealMS, _, err := measureTopK(ds, sealFilter, specs, opts)
			if err != nil {
				return err
			}
			scanMS, results, err := measureTopK(ds, scanFilter, specs, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.1f\n", k, sealMS, scanMS, results)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func measureTopK(ds *model.Dataset, f core.Filter, specs []gen.QuerySpec, opts core.TopKOptions) (avgMS, avgResults float64, err error) {
	searcher := core.NewSearcher(ds, f)
	start := time.Now()
	var results int
	for _, spec := range specs {
		q, qerr := ds.NewQuery(spec.Region, spec.Terms, opts.FloorR, opts.FloorT)
		if qerr != nil {
			return 0, 0, qerr
		}
		found, _, terr := searcher.TopK(q, opts, nil)
		if terr != nil {
			return 0, 0, terr
		}
		results += len(found)
	}
	n := float64(len(specs))
	return ms(time.Since(start)) / n, float64(results) / n, nil
}
