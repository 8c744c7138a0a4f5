package server

// Index boot for the daemon: open sealed segments when a complete matching
// directory exists (a page-table operation, the PR 6 dividend), otherwise
// build from a dataset file — persisting into the segment directory so
// the next boot maps. Warmup then faults mmap pages in with synthetic
// queries derived from indexed objects before /readyz ever flips.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	seal "github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/model"
)

// BootInfo records how the index came up, for logs and /v1/status.
type BootInfo struct {
	// Source is "segments" (mmap boot), "built" (in-memory build, no
	// segment dir), "built+saved" (built and persisted for next boot), or
	// "rebuilt" (the segment directory was damaged beyond what Build
	// tolerates; it was cleared and re-created from the dataset file).
	Source        string
	BootTime      time.Duration
	WarmupQueries int
	WarmupTime    time.Duration
	// Quarantined counts shards that failed to open cleanly from their
	// segments (segment-only boots; a -data boot rebuilds instead).
	Quarantined int
}

// Logf is the boot logger's shape (log.Printf-compatible); nil silences.
type Logf func(format string, args ...any)

func (f Logf) printf(format string, args ...any) {
	if f != nil {
		f(format, args...)
	}
}

// Boot opens or builds the index cfg describes. With only SegmentDir set it
// boots purely from sealed segments; with DataPath it loads the dataset file
// and either maps a matching segment directory or builds (and, with
// SegmentDir, saves). Warmup is not run here — the daemon wires it separately
// so warmup latency lands in the metrics registry.
func Boot(cfg Config, logf Logf) (*seal.Index, BootInfo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, BootInfo{}, err
	}
	start := time.Now()
	if cfg.DataPath == "" {
		logf.printf("booting from sealed segments at %s", cfg.SegmentDir)
		// Open quarantines a damaged shard instead of failing: with no dataset
		// file to rebuild from, serving the surviving shards (and saying
		// so in /readyz) beats refusing to boot.
		ix, err := seal.Open(cfg.SegmentDir)
		if err != nil {
			return nil, BootInfo{}, err
		}
		info := BootInfo{Source: "segments", BootTime: time.Since(start), Quarantined: ix.Quarantined()}
		for _, h := range ix.Health() {
			if h.State == seal.ShardQuarantined {
				logf.printf("shard %d quarantined: %s", h.Shard, h.Err)
			}
		}
		if info.Quarantined > 0 {
			logf.printf("boot degraded: %d/%d shards quarantined", info.Quarantined, ix.Stats().Shards)
		}
		return ix, info, nil
	}

	objects, err := LoadObjects(cfg.DataPath)
	if err != nil {
		return nil, BootInfo{}, err
	}
	logf.printf("loaded %d objects from %s, indexing (%s, %d shard(s))",
		len(objects), cfg.DataPath, cfg.Method, cfg.Shards)

	opts, err := MethodOptions(cfg.Method, cfg.Granularity)
	if err != nil {
		return nil, BootInfo{}, err
	}
	opts = append(opts, seal.WithShards(cfg.Shards))
	if cfg.SegmentDir != "" {
		opts = append(opts, seal.WithSegmentDir(cfg.SegmentDir))
	}
	ix, err := seal.Build(objects, opts...)
	rebuilt := false
	if err != nil && cfg.SegmentDir != "" {
		// With the dataset file in hand the segment directory is a cache,
		// not the source of truth: a directory damaged beyond what Build's
		// stale-fallthrough tolerates (e.g. a write error against leftover
		// state) is cleared and re-created rather than failing the boot.
		logf.printf("segment directory %s unusable (%v); clearing and rebuilding", cfg.SegmentDir, err)
		if rmErr := os.RemoveAll(cfg.SegmentDir); rmErr != nil {
			return nil, BootInfo{}, fmt.Errorf("server: clearing damaged segment dir: %w (after %v)", rmErr, err)
		}
		ix, err = seal.Build(objects, opts...)
		rebuilt = true
	}
	if err != nil {
		return nil, BootInfo{}, err
	}
	info := BootInfo{BootTime: time.Since(start)}
	switch {
	case rebuilt:
		info.Source = "rebuilt"
	case ix.Stats().Mapped:
		info.Source = "segments"
	case cfg.SegmentDir != "":
		info.Source = "built+saved"
	default:
		info.Source = "built"
	}
	return ix, info, nil
}

// LoadObjects reads a dataset file written by sealgen — a dataset segment,
// checksummed and validated in full as it opens — and returns its objects.
// Nothing returned aliases the file, which is closed again before it returns.
// A file of another format (such as sealgen's old gob snapshots) fails with
// the segment container's bad-magic error: regenerate it with sealgen.
func LoadObjects(path string) ([]seal.Object, error) {
	seg, err := diskidx.OpenDataset(path)
	if err != nil {
		return nil, fmt.Errorf("server: reading dataset file %s: %w", path, err)
	}
	defer seg.Close()
	return SnapshotObjects(seg.Dataset()), nil
}

// SnapshotObjects converts a root dataset back into public API objects in ID
// order, copying every region and term (the terms slice one copy of the
// vocabulary's blob, which may be mapped); Build re-derives identical token
// weights from the same corpus. It reads the rows in storage order and puts
// each object at its ID.
func SnapshotObjects(ds *model.Dataset) []seal.Object {
	blob, off := ds.Vocab().Blob()
	blob = strings.Clone(blob)
	objects := make([]seal.Object, ds.Len())
	for r := range objects {
		row := model.ObjectID(r)
		obj := &objects[ds.ID(row)]
		toks := ds.Tokens(row)
		obj.Tokens = make([]string, 0, len(toks))
		for _, t := range toks {
			obj.Tokens = append(obj.Tokens, blob[off[t]:off[t+1]])
		}
		if set := ds.MultiRegion(row); set != nil {
			obj.Regions = make([]seal.Rect, len(set))
			for j, r := range set {
				obj.Regions[j] = seal.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
			}
			continue
		}
		r := ds.Region(row)
		obj.Region = seal.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	return objects
}

// Warmup runs n synthetic queries against the served index, recording their
// latency under the "warmup" metrics label and none of their stage times, so
// boot-time page faults never skew serving histograms. Queries are built from real indexed objects —
// region plus a token prefix — so they probe live posting lists and fault
// the mapped arenas in. Returns the total elapsed time.
func (s *Server) Warmup(n int) (time.Duration, error) {
	if n <= 0 {
		return 0, nil
	}
	ix := s.ix
	total := ix.Len()
	start := time.Now()
	for i := 0; i < n; i++ {
		// Stride through the ID space so warmup touches every shard and a
		// spread of posting lists rather than one hot corner.
		id := (i * (total/n + 1)) % total
		obj, err := ix.Object(id)
		if err != nil {
			return time.Since(start), err
		}
		region := obj.Region
		if len(obj.Regions) > 0 {
			region = obj.Regions[0]
		}
		tokens := obj.Tokens
		if len(tokens) > 6 {
			tokens = tokens[:6]
		}
		if len(tokens) == 0 {
			continue // a token-less object can't drive the text filter
		}
		req := seal.Request{Region: region, Tokens: tokens, TauR: 0.5, TauT: 0.5}
		qstart := time.Now()
		// AllowPartial unconditionally: warmup exists to fault pages in, and
		// on a degraded boot the healthy shards' pages still deserve warming.
		// Real traffic keeps the configured strictness.
		res, err := ix.Query(context.Background(), req, seal.CollectStats(), seal.AllowPartial())
		if err != nil {
			return time.Since(start), fmt.Errorf("server: warmup query %d: %w", i, err)
		}
		s.metrics.RecordQuery(res.Stats, len(res.Matches))
		s.metrics.RecordRequest("warmup", 200, time.Since(qstart))
	}
	return time.Since(start), nil
}

// RunWarmup executes cfg.Warmup queries, logs the latency, and stamps the
// result into the server's boot info.
func (s *Server) RunWarmup(logf Logf) error {
	n := s.cfg.Warmup
	if n <= 0 {
		return nil
	}
	d, err := s.Warmup(n)
	if err != nil {
		return err
	}
	s.boot.WarmupQueries = n
	s.boot.WarmupTime = d
	logf.printf("warmup: %d queries in %v (%.2f ms/query, p99 %.2f ms)",
		n, d.Round(time.Microsecond), float64(d.Microseconds())/1e3/float64(n),
		s.metrics.LatencyQuantile("warmup", 0.99)*1e3)
	return nil
}
