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

// Point is one measured cell of an experiment: a workload run at fixed
// thresholds against one filter.
type Point struct {
	AvgMS       float64 // mean elapsed time per query, milliseconds
	FilterMS    float64 // mean filter-step time
	VerifyMS    float64 // mean verification time
	Candidates  float64 // mean candidate count
	Results     float64 // mean result count
	ListsProbed float64 // mean probed lists
	Postings    float64 // mean scanned postings
}

// measure compiles every spec at (tauR, tauT) and runs it through the filter.
func measure(ds *model.Dataset, f core.Filter, specs []gen.QuerySpec, tauR, tauT float64) (Point, error) {
	searcher := core.NewSearcher(ds, f)
	var p Point
	for _, spec := range specs {
		q, err := spec.Compile(ds, tauR, tauT)
		if err != nil {
			return p, fmt.Errorf("bench: compiling query: %w", err)
		}
		_, st := searcher.Search(q, nil, 0)
		p.AvgMS += ms(st.Elapsed())
		p.FilterMS += ms(st.FilterTime)
		p.VerifyMS += ms(st.VerifyTime)
		p.Candidates += float64(st.Candidates)
		p.Results += float64(st.Results)
		p.ListsProbed += float64(st.ListsProbed)
		p.Postings += float64(st.PostingsScanned)
	}
	n := float64(len(specs))
	p.AvgMS /= n
	p.FilterMS /= n
	p.VerifyMS /= n
	p.Candidates /= n
	p.Results /= n
	p.ListsProbed /= n
	p.Postings /= n
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Thresholds swept by the paper's figures.
var thresholds = []float64{0.1, 0.2, 0.3, 0.4, 0.5}

// defaultTau is the fixed threshold while the other one sweeps.
const defaultTau = 0.4

// panel prints one sub-figure: rows are swept threshold values, columns are
// methods, cells are average elapsed milliseconds.
func panel(w io.Writer, title, xLabel string, ds *model.Dataset, filters []core.Filter,
	specs []gen.QuerySpec, sweepSpatial bool) error {

	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", xLabel)
	for _, f := range filters {
		fmt.Fprintf(tw, "\t%s(ms)", f.Name())
	}
	fmt.Fprintln(tw)
	for _, tau := range thresholds {
		tauR, tauT := defaultTau, tau
		if sweepSpatial {
			tauR, tauT = tau, defaultTau
		}
		fmt.Fprintf(tw, "%.1f", tau)
		for _, f := range filters {
			p, err := measure(ds, f, specs, tauR, tauT)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%.3f", p.AvgMS)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// mb renders a byte count in MB.
func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
