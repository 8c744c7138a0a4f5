package seal_test

// Goroutine-hygiene tests for the two cancellation paths a serving daemon
// leans on: QueryBatch with a context canceled mid-batch, and Stream
// abandoned by the consumer (the HTTP client-disconnect path). Both fan out
// worker goroutines inside the engine; neither may leave any behind once the
// caller walks away. The leak check counts goroutines directly — the repo is
// dependency-free, so no goleak.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/faultfs"
)

// waitForGoroutines polls until the live goroutine count settles back to at
// most baseline. Engine workers exit asynchronously after a cancel, so a
// single instantaneous sample would flake; a count still above baseline
// after the deadline is a leak.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // finalize abandoned iterators promptly
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueryBatchMidBatchCancellation: canceling the batch context while
// queries are in flight must stop the remaining work, mark every unstarted
// entry with the context error, and leave no worker goroutines behind.
func TestQueryBatchMidBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260801))
	objects := shardObjects(2000, rng)
	ix, err := seal.Build(objects, seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([]seal.Request, 256)
	for i := range reqs {
		reqs[i] = seal.Request{
			Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
			Tokens: []string{fmt.Sprintf("t%d", i%30), "t1"},
			TauR:   0.001,
			TauT:   0.001,
		}
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let a few queries land, then pull the plug mid-batch.
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	out := ix.QueryBatch(ctx, reqs)
	cancel()

	if len(out) != len(reqs) {
		t.Fatalf("batch returned %d results, want %d", len(out), len(reqs))
	}
	canceled := 0
	for i, br := range out {
		switch {
		case br.Err != nil:
			if !errors.Is(br.Err, context.Canceled) {
				t.Fatalf("entry %d: error %v, want context.Canceled", i, br.Err)
			}
			canceled++
		case br.Results == nil:
			t.Fatalf("entry %d: neither results nor error", i)
		}
	}
	if canceled == 0 {
		t.Skip("batch finished before cancel landed; nothing to assert")
	}
	t.Logf("canceled %d of %d batch entries", canceled, len(reqs))
	waitForGoroutines(t, baseline)
}

// TestQueryBatchPreCanceled: an already-canceled context fails every entry
// without starting engine work.
func TestQueryBatchPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(20260802))
	ix, err := seal.Build(shardObjects(200, rng), seal.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := shardRequests(8)
	baseline := runtime.NumGoroutine()
	for i, br := range ix.QueryBatch(ctx, reqs) {
		if br.Err == nil || !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("entry %d: error %v, want context.Canceled", i, br.Err)
		}
	}
	waitForGoroutines(t, baseline)
}

// TestStreamEarlyCloseNoLeak: a consumer that abandons the stream after the
// first match — exactly what the HTTP layer does when a client disconnects
// mid-NDJSON — must unwind the engine's shard goroutines completely.
func TestStreamEarlyCloseNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(20260803))
	objects := shardObjects(3000, rng)
	ix, err := seal.Build(objects, seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		TauR:   0.0005,
		TauT:   0.0005,
	}

	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		got := 0
		for _, err := range ix.Stream(context.Background(), req) {
			if err != nil {
				t.Fatal(err)
			}
			got++
			if got == 1 {
				break // abandon with shard producers still running
			}
		}
		if got == 0 {
			t.Fatal("stream produced no matches to abandon")
		}
	}
	waitForGoroutines(t, baseline)
}

// TestStreamContextCancelNoLeak: cancellation from above (the server's
// per-request timeout path) likewise unwinds every shard goroutine.
func TestStreamContextCancelNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(20260804))
	ix, err := seal.Build(shardObjects(3000, rng), seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		TauR:   0.0005,
		TauT:   0.0005,
	}
	baseline := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		for _, err := range ix.Stream(ctx, req) {
			if err != nil {
				break // context error ends the stream; that's the point
			}
			n++
			if n == 1 {
				cancel()
			}
		}
		cancel()
	}
	waitForGoroutines(t, baseline)
}

// TestStreamShardPanicNoLeak: a shard goroutine that panics mid-stream must
// be recovered into an error (strict) or a drop (partial) with every other
// shard goroutine unwound — a crashing shard must not strand its siblings.
func TestStreamShardPanicNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	ix, err := seal.Build(shardObjects(2000, rng), seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		TauR:   0.0005,
		TauT:   0.0005,
	}
	faultfs.Install((&faultfs.Injector{}).PanicShard(2, "injected stream panic"))
	t.Cleanup(faultfs.Uninstall)

	baseline := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		// Strict: the recovered panic surfaces as the stream's terminal error.
		sawErr := false
		for _, serr := range ix.Stream(context.Background(), req) {
			if serr != nil {
				sawErr = true
				if !strings.Contains(serr.Error(), "panicked") {
					t.Fatalf("stream error %v, want a recovered panic", serr)
				}
				break
			}
		}
		if !sawErr {
			t.Fatal("strict stream over a panicking shard ended without an error")
		}

		// Partial: the panicking shard is dropped and the stream completes.
		var st seal.Stats
		for _, serr := range ix.Stream(context.Background(), req, seal.AllowPartial(), seal.StatsInto(&st)) {
			if serr != nil {
				t.Fatalf("partial stream: %v", serr)
			}
		}
		if st.ShardErrors != 1 {
			t.Fatalf("partial stream ShardErrors = %d, want 1", st.ShardErrors)
		}
	}
	waitForGoroutines(t, baseline)
}

// TestStreamShardTimeoutNoLeak: a shard dropped at its deadline mid-stream
// leaves no goroutine behind — the late searcher finishes on its own, notices
// it was abandoned, and exits.
func TestStreamShardTimeoutNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	ix, err := seal.Build(shardObjects(2000, rng), seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		TauR:   0.0005,
		TauT:   0.0005,
	}
	faultfs.Install((&faultfs.Injector{}).DelayShard(1, 150*time.Millisecond))
	t.Cleanup(faultfs.Uninstall)

	baseline := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		var st seal.Stats
		for _, serr := range ix.Stream(context.Background(), req,
			seal.AllowPartial(), seal.ShardTimeout(15*time.Millisecond), seal.StatsInto(&st)) {
			if serr != nil {
				t.Fatalf("stream: %v", serr)
			}
		}
		if st.ShardErrors != 1 {
			t.Fatalf("ShardErrors = %d, want 1 (the delayed shard dropped)", st.ShardErrors)
		}
	}
	waitForGoroutines(t, baseline)
}

func shardRequests(n int) []seal.Request {
	reqs := make([]seal.Request, n)
	for i := range reqs {
		reqs[i] = seal.Request{
			Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 60, MaxY: 60},
			Tokens: []string{fmt.Sprintf("t%d", i%30)},
			TauR:   0.05,
			TauT:   0.05,
		}
	}
	return reqs
}
