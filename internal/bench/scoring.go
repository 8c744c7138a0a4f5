package bench

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
)

// The scoring experiment tracks the accumulator fast path introduced in
// PR 3: scan-time SimT accumulation, the flat posting layout, and the
// zero-allocation query scratch. It reports, per filter, the filter/verify
// time split, postings scanned and heap allocations per steady-state query,
// plus a flat-vs-map posting-layout microbenchmark — the old-vs-new numbers
// future PRs diff BENCH_PR3.json against.

// ScoringFilterPoint is one filter's steady-state scoring measurement.
type ScoringFilterPoint struct {
	Filter         string  `json:"filter"`
	AvgMS          float64 `json:"avg_ms"`
	FilterMS       float64 `json:"filter_ms"`
	VerifyMS       float64 `json:"verify_ms"`
	Postings       float64 `json:"postings"`
	Candidates     float64 `json:"candidates"`
	Results        float64 `json:"results"`
	AllocsPerQuery float64 `json:"allocs_per_query"`
}

// ScoringLayout sizes and times the flat posting layout over the dataset's
// token postings.
type ScoringLayout struct {
	Lists       int     `json:"lists"`
	Postings    int     `json:"postings"`
	FlatSizeMB  float64 `json:"flat_size_mb"`
	FlatProbeNS float64 `json:"flat_probe_ns"` // mean lookup+cutoff+head-scan
}

// ScoringResult is the experiment's machine-readable output.
type ScoringResult struct {
	Search []ScoringFilterPoint `json:"search"`
	Layout ScoringLayout        `json:"layout"`
}

// ScoringData measures the scoring fast path on the Twitter workload.
func ScoringData(env *Env) (*ScoringResult, error) {
	ds, err := env.Dataset("twitter")
	if err != nil {
		return nil, err
	}
	specs, err := env.Workload("twitter", "small")
	if err != nil {
		return nil, err
	}
	queries := make([]*model.Query, len(specs))
	for i, spec := range specs {
		q, err := spec.Compile(ds, defaultTau, defaultTau)
		if err != nil {
			return nil, fmt.Errorf("bench: compiling query: %w", err)
		}
		queries[i] = q
	}

	res := &ScoringResult{}
	for _, spec := range []FilterSpec{
		{Kind: "token"},
		{Kind: "grid", P: 1024},
		{Kind: "hybrid", P: 1024},
		{Kind: "seal"},
	} {
		f, err := env.Filter("twitter", spec)
		if err != nil {
			return nil, err
		}
		res.Search = append(res.Search, scoringPoint(ds, f, queries))
	}

	res.Layout = layoutProbe(ds, queries)
	return res, nil
}

// scoringPoint runs the workload through one warmed searcher and reports
// means, including heap allocations per query (steady state: the warmup
// pass sizes every reusable buffer first).
func scoringPoint(ds *model.Dataset, f core.Filter, queries []*model.Query) ScoringFilterPoint {
	s := core.NewSearcher(ds, f)
	for _, q := range queries { // warmup: grow scratch to the workload's high water mark
		s.Search(q)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := ScoringFilterPoint{Filter: f.Name()}
	for _, q := range queries {
		_, st := s.Search(q)
		p.AvgMS += ms(st.Elapsed())
		p.FilterMS += ms(st.FilterTime)
		p.VerifyMS += ms(st.VerifyTime)
		p.Postings += float64(st.PostingsScanned)
		p.Candidates += float64(st.Candidates)
		p.Results += float64(st.Results)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(queries))
	p.AvgMS /= n
	p.FilterMS /= n
	p.VerifyMS /= n
	p.Postings /= n
	p.Candidates /= n
	p.Results /= n
	p.AllocsPerQuery = float64(m1.Mallocs-m0.Mallocs) / n
	return p
}

// layoutProbe builds the dataset's token postings into the flat layout and
// times the probe pattern of a threshold query (key lookup, bound cutoff,
// head scan) over the query workload's tokens.
func layoutProbe(ds *model.Dataset, queries []*model.Query) ScoringLayout {
	var fb invidx.Builder
	for obj := 0; obj < ds.Len(); obj++ {
		for _, t := range ds.Tokens(model.ObjectID(obj)) {
			fb.Add(uint64(t), uint32(obj), ds.TokenWeight(t))
		}
	}
	flat := fb.Build()

	out := ScoringLayout{
		Lists:      flat.Lists(),
		Postings:   flat.Postings(),
		FlatSizeMB: float64(flat.SizeBytes()) / (1 << 20),
	}

	// The probe workload: every query token at the query's textual slack.
	const rounds = 8
	var probes int
	var sink uint32
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			_, cT := core.Thresholds(q)
			slack := invidx.Slack(cT)
			for _, t := range q.Tokens {
				l := flat.List(uint64(t))
				n := l.Cutoff(slack)
				for _, o := range l.Objs(n) {
					sink += o
				}
				probes++
			}
		}
	}
	if probes > 0 {
		out.FlatProbeNS = float64(time.Since(start).Nanoseconds()) / float64(probes)
	}
	_ = sink
	return out
}

// Scoring prints the experiment as tables.
func Scoring(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Scoring fast path: scan-time accumulation, flat postings, allocs (Twitter, tau=0.4)")
	res, err := ScoringData(env)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "filter\tavg(ms)\tfilter(ms)\tverify(ms)\tpostings\tcandidates\tallocs/query")
	for _, p := range res.Search {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.0f\t%.0f\t%.1f\n",
			p.Filter, p.AvgMS, p.FilterMS, p.VerifyMS, p.Postings, p.Candidates, p.AllocsPerQuery)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	l := res.Layout
	fmt.Fprintf(w, "\nposting layout (token lists: %d lists, %d postings)\n", l.Lists, l.Postings)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layout\tsize (MB)\tprobe (ns)")
	fmt.Fprintf(tw, "flat\t%.2f\t%.0f\n", l.FlatSizeMB, l.FlatProbeNS)
	return tw.Flush()
}
