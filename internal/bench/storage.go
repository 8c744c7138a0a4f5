package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

// The storage experiment tracks the PR 6 storage layer: delta/quantized
// posting compression and mmap-backed sealed segments. Per object-count tier
// and filter it reports index build time, the raw vs compressed on-disk
// segment size, segment save and mapped-open times (open speedup is the
// ratio of build to open — the "boot from disk instead of rebuilding"
// dividend), and steady-state query latency and allocations for the raw
// in-memory, compressed in-memory, and mapped variants.

// StoragePoint is one (tier, filter) measurement.
type StoragePoint struct {
	Objects         int     `json:"objects"`
	Filter          string  `json:"filter"`
	BuildMS         float64 `json:"build_ms"`
	RawBytes        int64   `json:"raw_bytes"`
	CompressedBytes int64   `json:"compressed_bytes"`
	SizeReduction   float64 `json:"size_reduction"` // 1 - compressed/raw
	SaveMS          float64 `json:"save_ms"`
	OpenMS          float64 `json:"open_ms"`
	OpenSpeedup     float64 `json:"open_speedup"` // build_ms / open_ms
	RawQueryUS      float64 `json:"raw_query_us"`
	CompQueryUS     float64 `json:"comp_query_us"`
	MappedQueryUS   float64 `json:"mapped_query_us"`
	RawAllocs       float64 `json:"raw_allocs_per_query"`
	CompAllocs      float64 `json:"comp_allocs_per_query"`
	MappedAllocs    float64 `json:"mapped_allocs_per_query"`
	Mapped          bool    `json:"mapped"` // false when mmap degraded to a read copy
}

// StorageResult is the experiment's machine-readable output.
type StorageResult struct {
	Points []StoragePoint `json:"points"`
}

// storageTiers returns the object-count sweep: Config.StorageTiers, or the
// configured Twitter scale when unset.
func storageTiers(env *Env) []int {
	if len(env.Cfg.StorageTiers) > 0 {
		return env.Cfg.StorageTiers
	}
	return []int{env.Cfg.TwitterN}
}

// StorageData measures the storage layer at every configured tier.
func StorageData(env *Env) (*StorageResult, error) {
	dir, err := os.MkdirTemp("", "sealbench-storage-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &StorageResult{}
	for _, n := range storageTiers(env) {
		ds, err := env.ScaledTwitter(n)
		if err != nil {
			return nil, err
		}
		specs, err := gen.Queries(ds, gen.SmallRegionConfig(env.Cfg.Queries, env.Cfg.Seed+400))
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
		for _, kind := range []string{"token", "grid", "seal"} {
			env.logf("storage: tier %d, %s ...", n, kind)
			p, err := storagePoint(env, ds, kind, queries, dir)
			if err != nil {
				return nil, fmt.Errorf("bench: storage tier %d %s: %w", n, kind, err)
			}
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// storagePoint runs the full raw → compressed → sealed → mapped cycle for
// one filter over one dataset tier.
func storagePoint(env *Env, ds *model.Dataset, kind string, queries []*model.Query, dir string) (StoragePoint, error) {
	p := StoragePoint{Objects: ds.Len(), Filter: kind}

	// A fresh (uncached) filter: the experiment mutates it by compressing in
	// place.
	spec := core.FilterSpec{Kind: kind, P: 1024, MaxLevel: env.Cfg.HierMaxLevel, GridBudget: env.Cfg.HierBudget}
	start := time.Now()
	f, err := core.BuildFilter(ds, spec)
	if err != nil {
		return p, err
	}
	p.BuildMS = ms(time.Since(start))
	// The spec as built, with the seal kind's defaults resolved.
	src, spec, _ := core.Postings(f)

	raw := scoringPoint(ds, f, queries)
	p.RawQueryUS = raw.AvgMS * 1e3
	p.RawAllocs = raw.AllocsPerQuery

	rawPath := filepath.Join(dir, fmt.Sprintf("%s-%d-raw.seg", kind, ds.Len()))
	if err := diskidx.WriteSegment(rawPath, src, ds.Len()); err != nil {
		return p, err
	}
	if st, err := os.Stat(rawPath); err == nil {
		p.RawBytes = st.Size()
	}

	// Compress in place (quantized flavour, the recommended setting) and
	// re-measure queries over the same filter object.
	core.CompressPostings(f)
	src, _, _ = core.Postings(f)
	comp := scoringPoint(ds, f, queries)
	p.CompQueryUS = comp.AvgMS * 1e3
	p.CompAllocs = comp.AllocsPerQuery

	compPath := filepath.Join(dir, fmt.Sprintf("%s-%d-comp.seg", kind, ds.Len()))
	start = time.Now()
	if err := diskidx.WriteSegment(compPath, src, ds.Len()); err != nil {
		return p, err
	}
	p.SaveMS = ms(time.Since(start))
	if st, err := os.Stat(compPath); err == nil {
		p.CompressedBytes = st.Size()
	}
	if p.RawBytes > 0 {
		p.SizeReduction = 1 - float64(p.CompressedBytes)/float64(p.RawBytes)
	}

	// Mapped open: page-table setup plus filter reconstruction, no signature
	// generation. The speedup over build is the boot dividend.
	start = time.Now()
	seg, err := diskidx.OpenMapped(compPath)
	if err != nil {
		return p, err
	}
	defer seg.Close()
	// The filter is reconstructed over the mapped segment as the engine does.
	mf, err := core.OpenFilter(ds, spec, seg.Source())
	if err != nil {
		return p, err
	}
	p.OpenMS = ms(time.Since(start))
	if p.OpenMS > 0 {
		p.OpenSpeedup = p.BuildMS / p.OpenMS
	}
	p.Mapped = seg.Mapped()

	mapped := scoringPoint(ds, mf, queries)
	p.MappedQueryUS = mapped.AvgMS * 1e3
	p.MappedAllocs = mapped.AllocsPerQuery
	return p, nil
}

// Storage prints the experiment as tables.
func Storage(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Storage: compressed postings and mmap-backed segments (Twitter, tau=0.4)")
	res, err := StorageData(env)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "objects\tfilter\tbuild(ms)\traw(MB)\tcompressed(MB)\treduction\tsave(ms)\topen(ms)\tspeedup")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%d\t%s\t%.1f\t%.2f\t%.2f\t%.0f%%\t%.1f\t%.2f\t%.0fx\n",
			p.Objects, p.Filter, p.BuildMS,
			float64(p.RawBytes)/(1<<20), float64(p.CompressedBytes)/(1<<20),
			p.SizeReduction*100, p.SaveMS, p.OpenMS, p.OpenSpeedup)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nsteady-state queries")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "objects\tfilter\traw(us)\tcompressed(us)\tmapped(us)\traw allocs\tcomp allocs\tmapped allocs")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%d\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			p.Objects, p.Filter, p.RawQueryUS, p.CompQueryUS, p.MappedQueryUS,
			p.RawAllocs, p.CompAllocs, p.MappedAllocs)
	}
	return tw.Flush()
}
