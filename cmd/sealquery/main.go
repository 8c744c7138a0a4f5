// Command sealquery loads a dataset file produced by sealgen, builds a
// seal.Index through the library's public API, and answers spatio-textual
// similarity queries — one from the command line, or a stream of them from
// stdin.
//
// One-shot queries stream results as NDJSON on stdout, one record per match
// the moment the engine verifies it (no buffering of the full result), with
// a summary on stderr:
//
//	sealquery -data twitter.seg -rect 100,200,130,240 -tokens "banodi,rukema" -taur 0.3 -taut 0.3
//	{"id":17,"sim_r":0.41,"sim_t":0.36}
//	{"id":52,"sim_r":0.33,"sim_t":0.58}
//
// -limit N stops the search after N matches — the engine interrupts the
// remaining shard work, so small limits answer faster, not just shorter.
// -topk K switches to ranked mode (records gain a "score" field, ordered
// best-first). -shards builds a sharded index that searches in parallel.
//
// -segments DIR persists the index as mmap-able sealed segments: the first
// run builds and saves, later runs with the same data and configuration boot
// from disk by memory-mapping instead of re-indexing. With -segments and no
// -data, the index boots purely from the segment directory (seal.Open).
// -compress stores posting lists as fixed-width columns with quantized bounds.
//
// SIGINT cancels the in-flight query and releases mapped segments cleanly
// (Index.Close runs on every exit path).
//
// Interactive (one query per line: minx miny maxx maxy tauR tauT token...):
//
//	sealquery -data twitter.seg -i
//	> 100 200 130 240 0.3 0.3 banodi rukema
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/server"
)

func main() {
	if err := run(); err != nil {
		if !errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "sealquery: %v\n", err)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		dataPath    = flag.String("data", "", "dataset file from sealgen (required without -segments)")
		method      = flag.String("method", "seal", "filter method: "+server.MethodNames)
		granularity = flag.Int("p", 1024, "grid granularity for grid/hybrid")
		shards      = flag.Int("shards", 1, "spatial shards searching in parallel")
		rectSpec    = flag.String("rect", "", "query rectangle minx,miny,maxx,maxy")
		tokensSpec  = flag.String("tokens", "", "comma-separated query tokens")
		tauR        = flag.Float64("taur", 0.3, "spatial similarity threshold")
		tauT        = flag.Float64("taut", 0.3, "textual similarity threshold")
		topK        = flag.Int("topk", 0, "if > 0, run a ranked (top-k) query instead of a threshold query")
		alpha       = flag.Float64("alpha", 0.5, "spatial weight of the ranked score")
		limit       = flag.Int("limit", 0, "if > 0, stop after this many matches (early termination)")
		segments    = flag.String("segments", "", "segment directory: save on first run, mmap-boot on later runs")
		compress    = flag.Bool("compress", false, "store compressed posting lists (16-bit quantized bounds, fixed-width columns)")
		explain     = flag.Bool("explain", false, "trace the query: matches as NDJSON on stdout, the stage/prune breakdown on stderr")
		interactive = flag.Bool("i", false, "read queries from stdin")
	)
	flag.Parse()
	if *dataPath == "" && *segments == "" {
		return errors.New("-data (or -segments with a saved index) is required")
	}

	// SIGINT/SIGTERM cancel the in-flight query promptly; the deferred
	// Close then unmaps any sealed segments before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var ix *seal.Index
	if *dataPath == "" {
		// Boot purely from sealed segments: no dataset file, no indexing.
		fmt.Fprintf(os.Stderr, "opening segments at %s...\n", *segments)
		opened, err := seal.Open(*segments)
		if err != nil {
			return err
		}
		ix = opened
	} else {
		objects, err := server.LoadObjects(*dataPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %d objects, building %s index...\n", len(objects), *method)

		opts, err := server.MethodOptions(*method, *granularity)
		if err != nil {
			return err
		}
		opts = append(opts, seal.WithShards(*shards))
		if *compress {
			opts = append(opts, seal.WithCompression(seal.CompressionQuantized))
		}
		if *segments != "" {
			opts = append(opts, seal.WithSegmentDir(*segments))
		}
		ix, err = seal.Build(objects, opts...)
		if err != nil {
			return err
		}
	}
	defer ix.Close()
	st := ix.Stats()
	boot := "built"
	if st.Mapped {
		boot = "mapped"
	}
	fmt.Fprintf(os.Stderr, "index ready (%s, %d shard(s), %.1f MB, %s)\n",
		st.Method, st.Shards, float64(st.IndexBytes)/(1<<20), boot)

	if *interactive {
		return runREPL(ctx, ix)
	}
	if *rectSpec == "" || *tokensSpec == "" {
		return errors.New("-rect and -tokens are required without -i")
	}
	rect, err := parseRect(*rectSpec)
	if err != nil {
		return err
	}
	req := seal.Request{Region: rect, Tokens: splitTokens(*tokensSpec), TauR: *tauR, TauT: *tauT}
	if *topK > 0 {
		req.TauR, req.TauT = 0, 0
		req.K = *topK
		req.Alpha = *alpha
	}
	if *explain {
		return runExplain(ctx, ix, req, *limit)
	}
	return streamNDJSON(ctx, ix, req, *limit)
}

// runExplain answers req with a materialized traced query: matches go to
// stdout as NDJSON exactly like the streamed path, the execution story —
// per-stage spans and pruned shards — prints as a table on stderr.
func runExplain(ctx context.Context, ix *seal.Index, req seal.Request, limit int) error {
	opts := []seal.QueryOption{seal.CollectStats(), seal.CollectTrace()}
	if limit > 0 {
		opts = append(opts, seal.Limit(limit))
	}
	res, err := ix.Query(ctx, req, opts...)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	type record struct {
		ID    int     `json:"id"`
		SimR  float64 `json:"sim_r"`
		SimT  float64 `json:"sim_t"`
		Score float64 `json:"score,omitempty"`
	}
	for _, m := range res.Matches {
		if err := enc.Encode(record{ID: m.ID, SimR: m.SimR, SimT: m.SimT, Score: m.Score}); err != nil {
			return err
		}
	}
	printTrace(os.Stderr, res)
	return nil
}

// printTrace renders one traced query's execution breakdown.
func printTrace(w *os.File, res *seal.Results) {
	t := res.Trace
	if t == nil {
		fmt.Fprintln(w, "no trace collected")
		return
	}
	fmt.Fprintf(w, "-- explain: %d match(es) in %v --\n", len(res.Matches), t.Elapsed)
	fmt.Fprintf(w, "%-8s %-6s %-24s %12s %12s %10s %10s\n",
		"STAGE", "SHARD", "FAMILY", "START", "DUR", "POSTINGS", "CAND")
	for _, s := range t.Spans {
		shard := strconv.Itoa(s.Shard)
		if s.Shard < 0 {
			shard = "-"
		}
		fmt.Fprintf(w, "%-8s %-6s %-24s %12v %12v %10d %10d\n",
			s.Stage, shard, s.Family, s.Start, s.Duration, s.PostingsScanned, s.Candidates)
	}
	totals := t.StageTotals()
	fmt.Fprintf(w, "stage totals:")
	for _, stage := range []string{"admit", "filter", "verify", "merge"} {
		if d, ok := totals[stage]; ok {
			fmt.Fprintf(w, " %s=%v", stage, d)
		}
	}
	fmt.Fprintln(w)
	for _, p := range t.Pruned {
		fmt.Fprintf(w, "pruned shard %d: bound %.4f < tauR %.4f\n", p.Shard, p.Bound, p.TauR)
	}
	if st := res.Stats; st != nil {
		fmt.Fprintf(w, "work: %d candidate(s), %d postings scanned, fanout %d, pruned %d\n",
			st.Candidates, st.PostingsScanned, st.ShardFanout, st.ShardsPruned)
	}
}

// streamNDJSON runs req through Index.Stream, writing one JSON record per
// match to stdout as the engine verifies it, and a work summary to stderr
// once the stream ends.
func streamNDJSON(ctx context.Context, ix *seal.Index, req seal.Request, limit int) error {
	type record struct {
		ID    int     `json:"id"`
		SimR  float64 `json:"sim_r"`
		SimT  float64 `json:"sim_t"`
		Score float64 `json:"score,omitempty"`
	}
	opts := []seal.QueryOption{}
	if limit > 0 {
		opts = append(opts, seal.Limit(limit))
	}
	var st seal.Stats
	opts = append(opts, seal.StatsInto(&st))

	enc := json.NewEncoder(os.Stdout)
	n := 0
	for m, err := range ix.Stream(ctx, req, opts...) {
		if err != nil {
			return err
		}
		if err := enc.Encode(record{ID: m.ID, SimR: m.SimR, SimT: m.SimT, Score: m.Score}); err != nil {
			return err
		}
		n++
	}
	fmt.Fprintf(os.Stderr, "%d match(es), %d candidate(s), %d postings scanned, filter %v + verify %v\n",
		n, st.Candidates, st.PostingsScanned, st.FilterTime, st.VerifyTime)
	return nil
}

func runREPL(ctx context.Context, ix *seal.Index) error {
	fmt.Println("query format: minx miny maxx maxy tauR tauT token [token...]  (ctrl-D to quit)")
	sc := bufio.NewScanner(os.Stdin)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return nil
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 7 {
			fmt.Println("need at least: minx miny maxx maxy tauR tauT token")
			continue
		}
		nums := make([]float64, 6)
		bad := false
		for i := 0; i < 6; i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				fmt.Printf("bad number %q\n", fields[i])
				bad = true
				break
			}
			nums[i] = v
		}
		if bad {
			continue
		}
		req := seal.Request{
			Region: seal.Rect{MinX: nums[0], MinY: nums[1], MaxX: nums[2], MaxY: nums[3]},
			Tokens: fields[6:],
			TauR:   nums[4],
			TauT:   nums[5],
		}
		res, err := ix.Query(ctx, req, seal.CollectStats())
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fmt.Printf("error: %v\n", err)
			continue
		}
		st := res.Stats
		fmt.Printf("%d answers (%d candidates, %v)\n", len(res.Matches), st.Candidates, st.FilterTime+st.VerifyTime)
		for _, m := range res.Matches {
			fmt.Printf("  object %d: simR=%.4f simT=%.4f\n", m.ID, m.SimR, m.SimT)
		}
	}
}

func parseRect(s string) (seal.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return seal.Rect{}, fmt.Errorf("rect needs 4 comma-separated numbers, got %q", s)
	}
	var vals [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return seal.Rect{}, fmt.Errorf("bad coordinate %q", p)
		}
		vals[i] = v
	}
	return seal.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}, nil
}

func splitTokens(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
