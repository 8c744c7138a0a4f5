// Command sharded demonstrates the scatter-gather engine through the
// unified query API: a synthetic city-scale dataset is indexed across
// several spatial shards that build in parallel, a threshold Query fans out
// across shards concurrently, a Stream with Limit interrupts shard work
// early, a ranked Request runs the cooperative top-k, and a deadline cuts a
// QueryBatch short via context.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	seal "github.com/sealdb/seal"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	categories := []string{"coffee", "tea", "bakery", "books", "vinyl", "ramen",
		"tacos", "climbing", "cinema", "jazz", "park", "museum"}

	// 50k venue profiles spread over a 1000×1000 city grid.
	objects := make([]seal.Object, 50000)
	for i := range objects {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		tokens := make([]string, 1+rng.Intn(4))
		for j := range tokens {
			tokens[j] = categories[rng.Intn(len(categories))]
		}
		objects[i] = seal.Object{
			Region: seal.Rect{MinX: x, MinY: y, MaxX: x + 2 + rng.Float64()*10, MaxY: y + 2 + rng.Float64()*10},
			Tokens: tokens,
		}
	}

	shards := runtime.GOMAXPROCS(0)
	if shards < 4 {
		shards = 4
	}
	start := time.Now()
	ix, err := seal.Build(objects,
		seal.WithMethod(seal.MethodGridFilter),
		seal.WithGranularity(256),
		seal.WithShards(shards), // spatial partitions, built in parallel, searched scatter-gather
	)
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("built %d objects into %d shards in %v (method=%s, %d KiB)\n",
		st.Objects, st.Shards, time.Since(start).Round(time.Millisecond), st.Method, st.IndexBytes/1024)

	// One threshold query: every shard searches concurrently and the merged
	// stats sum the per-shard work.
	req := seal.Request{
		Region: seal.Rect{MinX: 505, MinY: 505, MaxX: 530, MaxY: 530},
		Tokens: []string{"coffee", "jazz"},
		TauR:   0.02,
		TauT:   0.2,
	}
	res, err := ix.Query(context.Background(), req, seal.CollectStats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("threshold search: %d matches from %d candidates across shards\n",
		len(res.Matches), res.Stats.Candidates)

	// The same query streamed with a Limit: the engine interrupts the
	// outstanding shard searches once 3 matches were emitted, so the stats
	// report genuinely less work than the full search above.
	var limited seal.Stats
	n := 0
	for m, err := range ix.Stream(context.Background(), req, seal.Limit(3), seal.StatsInto(&limited)) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  streamed venue %d (simR=%.2f simT=%.2f)\n", m.ID, m.SimR, m.SimT)
		n++
	}
	fmt.Printf("stream with Limit(3): %d matches, %d candidates vs %d unbounded\n",
		n, limited.Candidates, res.Stats.Candidates)

	// A ranked request with cooperative pruning: shards share the running
	// k-th-best score, so a shard whose remaining objects cannot reach it
	// stops early.
	top, err := ix.Query(context.Background(), seal.Request{
		Region: req.Region,
		Tokens: req.Tokens,
		K:      5,
		Alpha:  0.5,
		FloorR: 0.01,
		FloorT: 0.01,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-5 by combined score:")
	for i, m := range top.Matches {
		fmt.Printf("  %d. venue %d score=%.3f (simR=%.2f simT=%.2f)\n", i+1, m.ID, m.Score, m.SimR, m.SimT)
	}

	// A batch under a deadline: when the context expires, queries that never
	// ran report the context error while the finished slots keep their
	// results — no completed work is discarded.
	batch := make([]seal.Request, 2000)
	for i := range batch {
		x, y := rng.Float64()*950, rng.Float64()*950
		batch[i] = seal.Request{
			Region: seal.Rect{MinX: x, MinY: y, MaxX: x + 50, MaxY: y + 50},
			Tokens: []string{categories[rng.Intn(len(categories))]},
			TauR:   0.05,
			TauT:   0.2,
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start = time.Now()
	outs := ix.QueryBatch(ctx, batch)
	finished, canceled, total := 0, 0, 0
	for _, out := range outs {
		switch {
		case errors.Is(out.Err, context.DeadlineExceeded):
			canceled++
		case out.Err != nil:
			log.Fatal(out.Err)
		default:
			finished++
			total += len(out.Results.Matches)
		}
	}
	fmt.Printf("batch of %d queries after %v: %d finished (%d total matches), %d canceled by the deadline\n",
		len(batch), time.Since(start).Round(time.Millisecond), finished, total, canceled)
}
