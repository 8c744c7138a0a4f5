package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	Name string
	Desc string
	Run  func(w io.Writer, env *Env) error
}

// Experiments lists every experiment in paper order.
var Experiments = []Experiment{
	{"table1", "Table 1: data statistics and index sizes", Table1},
	{"fig12", "Figure 12: TokenFilter vs GridFilter (Twitter)", Fig12},
	{"fig13", "Figure 13: grid granularity: filter vs verification time (Twitter)", Fig13},
	{"fig14", "Figure 14: GridFilter vs HybridFilter (Twitter)", Fig14},
	{"fig15", "Figure 15: hash vs hierarchical hybrid signatures under index-size budgets (Twitter)", Fig15},
	{"fig16", "Figure 16: comparison with existing methods (Twitter)", Fig16},
	{"fig17", "Figure 17: comparison with existing methods (USA)", Fig17},
	{"fig18", "Figure 18: scalability in the number of objects (Twitter)", Fig18},
	{"ablation", "Extra: threshold-aware pruning ablation (plain Sig-Filter vs Sig-Filter+)", Ablation},
	{"candidates", "Extra: candidate-set sizes per method (the paper's technical-report data)", Candidates},
	{"topk", "Extra: top-k search via threshold descent vs full scan", TopK},
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1 prints dataset statistics and index sizes for both datasets,
// mirroring the paper's Table 1 rows.
func Table1(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Table 1: data statistics and index sizes")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "statistic\tTwitter\tUSA")

	type column struct {
		ds      *model.Dataset
		rowVals map[string]string
	}
	cols := make([]column, 0, 2)
	for _, name := range []string{"twitter", "usa"} {
		ds, err := env.Dataset(name)
		if err != nil {
			return err
		}
		vals := map[string]string{}
		var areaSum, tokSum float64
		for i := 0; i < ds.Len(); i++ {
			id := model.ObjectID(i)
			areaSum += ds.Area(id)
			tokSum += float64(len(ds.Tokens(id)))
		}
		n := float64(ds.Len())
		vals["Object number"] = fmt.Sprintf("%d", ds.Len())
		vals["Avg region area (sq.km.)"] = fmt.Sprintf("%.1f", areaSum/n)
		vals["Entire space (million sq.km.)"] = fmt.Sprintf("%.0f", ds.Space().Area()/1e6)
		vals["Avg token number"] = fmt.Sprintf("%.1f", tokSum/n)
		// Data size: regions (4 float64) + token IDs (4B each) + vocabulary.
		var vocabBytes int64
		for t := 0; t < ds.Vocab().Len(); t++ {
			vocabBytes += int64(len(ds.Vocab().Term(text.TokenID(t)))) + 16
		}
		dataBytes := int64(ds.Len())*32 + int64(tokSum)*4 + vocabBytes
		vals["Data size (MB)"] = mb(dataBytes)

		for _, row := range []struct {
			label string
			spec  FilterSpec
		}{
			{"IR-tree size (MB)", FilterSpec{Kind: "irtree"}},
			{"TokenInv size (MB)", FilterSpec{Kind: "token"}},
			{"GridInv (1024) size (MB)", FilterSpec{Kind: "grid", P: 1024}},
			{"HashInv (1024) size (MB)", FilterSpec{Kind: "hybrid", P: 1024}},
			{"HierarchicalInv size (MB)", FilterSpec{Kind: "seal"}},
		} {
			f, err := env.Filter(name, row.spec)
			if err != nil {
				return err
			}
			vals[row.label] = mb(f.SizeBytes())
		}
		cols = append(cols, column{ds: ds, rowVals: vals})
	}
	rows := []string{
		"Object number", "Avg region area (sq.km.)", "Entire space (million sq.km.)",
		"Avg token number", "Data size (MB)", "IR-tree size (MB)", "TokenInv size (MB)",
		"GridInv (1024) size (MB)", "HashInv (1024) size (MB)", "HierarchicalInv size (MB)",
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r, cols[0].rowVals[r], cols[1].rowVals[r])
	}
	return tw.Flush()
}

// Fig12 compares TokenFilter against GridFilter at granularities 256, 512
// and 1024 on Twitter, sweeping each threshold for each query set.
func Fig12(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Figure 12: TokenFilter vs GridFilter on the Twitter data set")
	ds, err := env.Dataset("twitter")
	if err != nil {
		return err
	}
	filters := make([]core.Filter, 0, 4)
	tok, err := env.Filter("twitter", FilterSpec{Kind: "token"})
	if err != nil {
		return err
	}
	filters = append(filters, tok)
	for _, p := range []int{256, 512, 1024} {
		g, err := env.Filter("twitter", FilterSpec{Kind: "grid", P: p})
		if err != nil {
			return err
		}
		filters = append(filters, g)
	}
	return fourPanels(w, env, ds, filters, "twitter")
}

// fourPanels emits the standard (a)-(d) layout of the comparison figures:
// large-region queries sweeping tau_R then tau_T, then small-region queries.
func fourPanels(w io.Writer, env *Env, ds *model.Dataset, filters []core.Filter, dsName string) error {
	large, err := env.Workload(dsName, "large")
	if err != nil {
		return err
	}
	small, err := env.Workload(dsName, "small")
	if err != nil {
		return err
	}
	panels := []struct {
		title   string
		specs   []gen.QuerySpec
		spatial bool
	}{
		{"(a) Large-Region Queries, varying spatial threshold (tau_T=0.4)", large, true},
		{"(b) Large-Region Queries, varying textual threshold (tau_R=0.4)", large, false},
		{"(c) Small-Region Queries, varying spatial threshold (tau_T=0.4)", small, true},
		{"(d) Small-Region Queries, varying textual threshold (tau_R=0.4)", small, false},
	}
	for _, p := range panels {
		label := "tau_R"
		if !p.spatial {
			label = "tau_T"
		}
		if err := panel(w, p.title, label, ds, filters, p.specs, p.spatial); err != nil {
			return err
		}
	}
	return nil
}

// Fig13 reports filter vs verification time across grid granularities
// 64..8192 at tau_R = tau_T = 0.4.
func Fig13(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Figure 13: evaluation on grid granularity (Twitter, tau=0.4)")
	ds, err := env.Dataset("twitter")
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
		fmt.Fprintln(tw, "granularity\tfilter(ms)\tverification(ms)\tcandidates")
		for _, p := range granularities(env) {
			f, err := env.Filter("twitter", FilterSpec{Kind: "grid", P: p})
			if err != nil {
				return err
			}
			pt, err := measure(ds, f, specs, defaultTau, defaultTau)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.0f\n", p, pt.FilterMS, pt.VerifyMS, pt.Candidates)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// granularities returns the paper's sweep (64..8192), trimmed at smoke scale.
func granularities(env *Env) []int {
	if env.Cfg.TwitterN <= SmokeConfig.TwitterN {
		return []int{64, 256, 1024, 4096}
	}
	return []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
}

// Fig14 compares GridFilter (G) against the hash-based HybridFilter (H) at
// granularities 256/512/1024.
func Fig14(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Figure 14: comparison of grid-based and hybrid filters (Twitter)")
	ds, err := env.Dataset("twitter")
	if err != nil {
		return err
	}
	var filters []core.Filter
	for _, p := range []int{256, 512, 1024} {
		g, err := env.Filter("twitter", FilterSpec{Kind: "grid", P: p})
		if err != nil {
			return err
		}
		h, err := env.Filter("twitter", FilterSpec{Kind: "hybrid", P: p})
		if err != nil {
			return err
		}
		filters = append(filters, g, h)
	}
	return fourPanels(w, env, ds, filters, "twitter")
}

// Fig15 compares hash-based and hierarchical hybrid signatures across
// index-size budgets at tau_R = 0.4, tau_T = 0.1 (the paper's setting).
func Fig15(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Figure 15: hash vs hierarchical hybrid signatures (Twitter, tau_R=0.4, tau_T=0.1)")
	ds, err := env.Dataset("twitter")
	if err != nil {
		return err
	}
	// Index size is controlled by the hash-bucket count for HashInv and by
	// the average per-token grid budget m_t for HierarchicalInv. The sweep
	// covers the constrained regime of the paper's Figure 15, where both
	// indexes are squeezed well below HashInv's natural size.
	bucketSweep := []int{1 << 11, 1 << 13, 1 << 15, 1 << 17}
	budgetSweep := []int{1, 2, 4, 8}
	for _, kind := range []string{"large", "small"} {
		specs, err := env.Workload("twitter", kind)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n(%s-region queries)\n", kind)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "method\tindex size (MB)\telapsed (ms)\tcandidates")
		for _, b := range bucketSweep {
			f, err := env.Filter("twitter", FilterSpec{Kind: "hybrid", P: 1024, Buckets: b})
			if err != nil {
				return err
			}
			pt, err := measure(ds, f, specs, 0.4, 0.1)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "Hash\t%s\t%.3f\t%.0f\n", mb(f.SizeBytes()), pt.AvgMS, pt.Candidates)
		}
		for _, m := range budgetSweep {
			f, err := env.Filter("twitter", FilterSpec{Kind: "seal", Budget: m, Level: env.Cfg.HierMaxLevel})
			if err != nil {
				return err
			}
			pt, err := measure(ds, f, specs, 0.4, 0.1)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "Hierarchical(m=%d)\t%s\t%.3f\t%.0f\n", m, mb(f.SizeBytes()), pt.AvgMS, pt.Candidates)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Fig16 compares SEAL against IR-tree, Keyword-first and Spatial-first on
// Twitter.
func Fig16(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Figure 16: comparison with existing methods (Twitter)")
	return methodComparison(w, env, "twitter")
}

// Fig17 is the same comparison on the USA dataset.
func Fig17(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Figure 17: comparison with existing methods (USA)")
	return methodComparison(w, env, "usa")
}

func methodComparison(w io.Writer, env *Env, dsName string) error {
	ds, err := env.Dataset(dsName)
	if err != nil {
		return err
	}
	var filters []core.Filter
	for _, spec := range []FilterSpec{
		{Kind: "irtree"}, {Kind: "keyword"}, {Kind: "spatial"}, {Kind: "seal"},
	} {
		f, err := env.Filter(dsName, spec)
		if err != nil {
			return err
		}
		filters = append(filters, f)
	}
	return fourPanels(w, env, ds, filters, dsName)
}

// Fig18 sweeps the object count at fixed thresholds, large-region queries.
func Fig18(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Figure 18: scalability on the Twitter data set (large-region queries)")
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	taus := []float64{0.1, 0.3, 0.5}

	// Build each scaled dataset, its Seal index and its workload once.
	type scalePoint struct {
		n     int
		ds    *model.Dataset
		f     core.Filter
		specs []gen.QuerySpec
	}
	points := make([]scalePoint, 0, len(fractions))
	for _, frac := range fractions {
		n := int(float64(env.Cfg.TwitterN) * frac)
		ds, err := env.ScaledTwitter(n)
		if err != nil {
			return err
		}
		f, err := env.FilterFor(ds, FilterSpec{Kind: "seal"})
		if err != nil {
			return err
		}
		specs, err := gen.Queries(ds, gen.LargeRegionConfig(env.Cfg.Queries, env.Cfg.Seed+300))
		if err != nil {
			return err
		}
		points = append(points, scalePoint{n: n, ds: ds, f: f, specs: specs})
	}

	for _, sweep := range []struct {
		title   string
		spatial bool
	}{
		{"(a) varying spatial threshold (tau_T=0.4)", true},
		{"(b) varying textual threshold (tau_R=0.4)", false},
	} {
		fmt.Fprintf(w, "\n%s\n", sweep.title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "objects")
		for _, tau := range taus {
			fmt.Fprintf(tw, "\tthreshold=%.1f (ms)", tau)
		}
		fmt.Fprintln(tw)
		for _, sp := range points {
			fmt.Fprintf(tw, "%d", sp.n)
			for _, tau := range taus {
				tauR, tauT := defaultTau, tau
				if sweep.spatial {
					tauR, tauT = tau, defaultTau
				}
				pt, err := measure(sp.ds, sp.f, sp.specs, tauR, tauT)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%.3f", pt.AvgMS)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Ablation quantifies threshold-aware pruning: the plain Sig-Filter of
// Figure 3 against Sig-Filter+ (Lemmas 2-3) on both signature types.
func Ablation(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Ablation: threshold-aware pruning (Twitter, tau=0.4)")
	ds, err := env.Dataset("twitter")
	if err != nil {
		return err
	}
	pairs := []struct {
		label      string
		plain, pro FilterSpec
	}{
		{"textual signatures", FilterSpec{Kind: "plaintoken"}, FilterSpec{Kind: "token"}},
		{"grid signatures (1024)", FilterSpec{Kind: "plaingrid", P: 1024}, FilterSpec{Kind: "grid", P: 1024}},
	}
	for _, kind := range []string{"large", "small"} {
		specs, err := env.Workload("twitter", kind)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n(%s-region queries)\n", kind)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "signatures\tvariant\telapsed(ms)\tpostings scanned\tcandidates")
		for _, pair := range pairs {
			for _, variant := range []struct {
				name string
				spec FilterSpec
			}{{"Sig-Filter", pair.plain}, {"Sig-Filter+", pair.pro}} {
				f, err := env.Filter("twitter", variant.spec)
				if err != nil {
					return err
				}
				pt, err := measure(ds, f, specs, defaultTau, defaultTau)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.0f\t%.0f\n", pair.label, variant.name, pt.AvgMS, pt.Postings, pt.Candidates)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
