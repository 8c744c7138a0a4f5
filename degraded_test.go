package seal_test

// Degraded-mode differential tests: with one shard quarantined (corrupt or
// missing segment), strict queries must fail with the sentinel while
// AllowPartial queries must return exactly the full answer minus the lost
// partition's objects — bit-identical similarities for every surviving match.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/faultfs"
	"github.com/sealdb/seal/internal/model"
)

// readParts reads each shard's object IDs out of the dataset segment — its
// rows' IDs between the shard's row bounds — so tests know exactly which
// objects live on each shard.
func readParts(t *testing.T, dir string) [][]model.ObjectID {
	t.Helper()
	seg, err := diskidx.OpenDataset(filepath.Join(dir, "dataset.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	ds, bounds := seg.Dataset(), seg.Bounds()
	parts := make([][]model.ObjectID, len(bounds)-1)
	for i := range parts {
		for row := bounds[i]; row < bounds[i+1]; row++ {
			parts[i] = append(parts[i], ds.ID(model.ObjectID(row)))
		}
	}
	return parts
}

func lostIDs(parts [][]model.ObjectID, shard int) map[int]bool {
	lost := make(map[int]bool, len(parts[shard]))
	for _, id := range parts[shard] {
		lost[int(id)] = true
	}
	return lost
}

func degradedRequests(n int, rng *rand.Rand) []seal.Request {
	reqs := make([]seal.Request, n)
	for i := range reqs {
		tokens := make([]string, 1+rng.Intn(3))
		for j := range tokens {
			tokens[j] = fmt.Sprintf("t%d", rng.Intn(30))
		}
		reqs[i] = seal.Request{
			Region: shardRect(rng, 30),
			Tokens: tokens,
			TauR:   0.02 + rng.Float64()*0.2,
			TauT:   0.02 + rng.Float64()*0.2,
		}
	}
	return reqs
}

// everyShard widens reqs to the whole data space at a threshold so low that
// no shard's extent is out of reach. The fault-injection tests arm one victim
// shard, and a shard that pruning skips never starts — its fault would never
// fire.
func everyShard(reqs []seal.Request) []seal.Request {
	for i := range reqs {
		reqs[i].Region = seal.Rect{MinX: 0, MinY: 0, MaxX: 112, MaxY: 112}
		reqs[i].TauR = 0.0005 * float64(1+i)
	}
	return reqs
}

// buildSegmented builds a sharded SEAL index persisted into dir and returns
// the full-answer baseline for reqs.
func buildSegmented(t *testing.T, objects []seal.Object, dir string, reqs []seal.Request) [][]seal.Match {
	t.Helper()
	ix, err := seal.Build(objects,
		seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(8),
		seal.WithShards(4),
		seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	full := make([][]seal.Match, len(reqs))
	for i, req := range reqs {
		res, err := ix.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatal("healthy index answered degraded")
		}
		full[i] = res.Matches
	}
	return full
}

// expectExactMinusShard asserts got is precisely want with the lost
// partition's objects removed — same order, bit-identical similarities.
func expectExactMinusShard(t *testing.T, label string, got, want []seal.Match, lost map[int]bool) {
	t.Helper()
	expected := make([]seal.Match, 0, len(want))
	for _, m := range want {
		if !lost[m.ID] {
			expected = append(expected, m)
		}
	}
	if len(got) != len(expected) {
		t.Fatalf("%s: %d matches, want %d (full %d minus lost shard)", label, len(got), len(expected), len(want))
	}
	for i := range expected {
		if got[i] != expected[i] {
			t.Fatalf("%s match %d: %+v, want %+v", label, i, got[i], expected[i])
		}
	}
}

func TestQuarantineDegradedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	objects := shardObjects(300, rng)
	reqs := degradedRequests(14, rng)
	dir := filepath.Join(t.TempDir(), "segs")
	full := buildSegmented(t, objects, dir, reqs)

	parts := readParts(t, dir)
	const victim = 2
	lost := lostIDs(parts, victim)

	// Truncate the victim shard's segment: the CRC-checked open must reject
	// it and Open must quarantine rather than fail.
	seg := filepath.Join(dir, fmt.Sprintf("shard-%d.seg", victim))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	ix, err := seal.Open(dir)
	if err != nil {
		t.Fatalf("Open with one damaged shard must quarantine, not fail: %v", err)
	}
	defer ix.Close()

	if got := ix.Quarantined(); got != 1 {
		t.Fatalf("Quarantined() = %d, want 1", got)
	}
	for _, h := range ix.Health() {
		want := seal.ShardServing
		if h.Shard == victim {
			want = seal.ShardQuarantined
		}
		if h.State != want {
			t.Fatalf("shard %d state %v, want %v (err %q)", h.Shard, h.State, want, h.Err)
		}
		if (h.Err != "") != (h.Shard == victim) {
			t.Fatalf("shard %d health error %q", h.Shard, h.Err)
		}
	}

	ctx := context.Background()
	for qi, req := range reqs {
		// Strict: the default contract never passes a partial answer off as
		// complete — it fails with the sentinel.
		if _, err := ix.Query(ctx, req); !errors.Is(err, seal.ErrShardQuarantined) {
			t.Fatalf("strict query %d: err = %v, want ErrShardQuarantined", qi, err)
		}

		// AllowPartial: exactly the full answer minus the lost partition.
		res, err := ix.Query(ctx, req, seal.AllowPartial(), seal.CollectStats())
		if err != nil {
			t.Fatalf("partial query %d: %v", qi, err)
		}
		if !res.Degraded {
			t.Fatalf("partial query %d: Degraded = false with a quarantined shard", qi)
		}
		if res.Stats.ShardErrors != 1 {
			t.Fatalf("partial query %d: ShardErrors = %d, want 1", qi, res.Stats.ShardErrors)
		}
		expectExactMinusShard(t, fmt.Sprintf("partial query %d", qi), res.Matches, full[qi], lost)

		// Streamed arrival order sees the same degraded set.
		var st seal.Stats
		seen := make(map[int]bool)
		for m, serr := range ix.Stream(ctx, req, seal.AllowPartial(), seal.StatsInto(&st)) {
			if serr != nil {
				t.Fatalf("stream query %d: %v", qi, serr)
			}
			seen[m.ID] = true
		}
		if st.ShardErrors != 1 {
			t.Fatalf("stream query %d: ShardErrors = %d, want 1", qi, st.ShardErrors)
		}
		for _, m := range full[qi] {
			if lost[m.ID] == seen[m.ID] {
				t.Fatalf("stream query %d: object %d lost=%v seen=%v", qi, m.ID, lost[m.ID], seen[m.ID])
			}
		}
	}

	// Ranked: a quarantined shard never feeds the tracker, so every returned
	// object comes from a surviving shard.
	ranked := seal.Request{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"}, K: 10, Alpha: 0.5, FloorR: 0.001, FloorT: 0.001}
	if _, err := ix.Query(ctx, ranked); !errors.Is(err, seal.ErrShardQuarantined) {
		t.Fatalf("strict ranked query: err = %v, want ErrShardQuarantined", err)
	}
	res, err := ix.Query(ctx, ranked, seal.AllowPartial())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("ranked partial query not marked Degraded")
	}
	for _, m := range res.Matches {
		if lost[m.ID] {
			t.Fatalf("ranked partial answer contains object %d from the quarantined shard", m.ID)
		}
	}
}

// TestMissingSegmentQuarantines: a shard whose segment file is gone, not
// merely truncated, is quarantined like a corrupt one — the open succeeds,
// strict queries fail with the sentinel, and partial answers are the full
// answer minus that shard's objects. Each of the four shards is removed in
// turn, the first and last included.
func TestMissingSegmentQuarantines(t *testing.T) {
	rng := rand.New(rand.NewSource(20260810))
	objects := shardObjects(260, rng)
	reqs := degradedRequests(10, rng)
	for victim := range 4 {
		t.Run(fmt.Sprintf("shard-%d", victim), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "segs")
			full := buildSegmented(t, objects, dir, reqs)
			lost := lostIDs(readParts(t, dir), victim)

			if err := os.Remove(filepath.Join(dir, fmt.Sprintf("shard-%d.seg", victim))); err != nil {
				t.Fatal(err)
			}
			ix, err := seal.Open(dir)
			if err != nil {
				t.Fatalf("Open with one missing shard must quarantine, not fail: %v", err)
			}
			defer ix.Close()
			if got := ix.Quarantined(); got != 1 {
				t.Fatalf("Quarantined() = %d, want 1", got)
			}
			for _, h := range ix.Health() {
				if quarantined := h.State == seal.ShardQuarantined; quarantined != (h.Shard == victim) || (h.Err != "") != quarantined {
					t.Fatalf("shard %d health %+v with shard %d missing", h.Shard, h, victim)
				}
			}
			ctx := context.Background()
			for qi, req := range reqs {
				if _, err := ix.Query(ctx, req); !errors.Is(err, seal.ErrShardQuarantined) {
					t.Fatalf("strict query %d: err = %v, want ErrShardQuarantined", qi, err)
				}
				res, err := ix.Query(ctx, req, seal.AllowPartial())
				if err != nil {
					t.Fatalf("partial query %d: %v", qi, err)
				}
				expectExactMinusShard(t, fmt.Sprintf("partial query %d", qi), res.Matches, full[qi], lost)
			}
		})
	}
}

func TestShardTimeoutDropsSlowShard(t *testing.T) {
	rng := rand.New(rand.NewSource(20260811))
	objects := shardObjects(300, rng)
	reqs := everyShard(degradedRequests(6, rng))
	dir := filepath.Join(t.TempDir(), "segs")
	full := buildSegmented(t, objects, dir, reqs)
	parts := readParts(t, dir)
	const victim = 1
	lost := lostIDs(parts, victim)

	ix, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// ShardTimeout without AllowPartial is a contract error: a strict query
	// has nothing to drop a timed-out shard to.
	if _, err := ix.Query(context.Background(), reqs[0], seal.ShardTimeout(time.Millisecond)); err == nil {
		t.Fatal("ShardTimeout without AllowPartial should be rejected")
	}

	faultfs.Install((&faultfs.Injector{}).DelayShard(victim, 400*time.Millisecond))
	t.Cleanup(faultfs.Uninstall)

	ctx := context.Background()
	for qi, req := range reqs {
		// Without a timeout the slow shard is merely slow: the full exact
		// answer arrives.
		res, err := ix.Query(ctx, req)
		if err != nil {
			t.Fatalf("slow query %d: %v", qi, err)
		}
		if res.Degraded {
			t.Fatalf("slow query %d degraded without a timeout", qi)
		}
		expectExactMinusShard(t, fmt.Sprintf("slow query %d", qi), res.Matches, full[qi], nil)

		// With a timeout well under the injected delay, the slow shard is
		// dropped whole and the rest of the answer is exact.
		res, err = ix.Query(ctx, req, seal.AllowPartial(), seal.ShardTimeout(40*time.Millisecond), seal.CollectStats())
		if err != nil {
			t.Fatalf("timed-out query %d: %v", qi, err)
		}
		if !res.Degraded || res.Stats.ShardErrors != 1 {
			t.Fatalf("timed-out query %d: Degraded=%v ShardErrors=%d, want degraded with 1 drop",
				qi, res.Degraded, res.Stats.ShardErrors)
		}
		expectExactMinusShard(t, fmt.Sprintf("timed-out query %d", qi), res.Matches, full[qi], lost)
	}
}

func TestShardPanicIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(20260812))
	objects := shardObjects(280, rng)
	reqs := everyShard(degradedRequests(5, rng))
	dir := filepath.Join(t.TempDir(), "segs")
	full := buildSegmented(t, objects, dir, reqs)
	parts := readParts(t, dir)
	const victim = 3
	lost := lostIDs(parts, victim)

	ix, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	faultfs.Install((&faultfs.Injector{}).PanicShard(victim, "injected shard bug"))
	t.Cleanup(faultfs.Uninstall)

	ctx := context.Background()
	for qi, req := range reqs {
		// A panicking shard must become an error, not a process crash.
		_, err := ix.Query(ctx, req)
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("strict query %d: err = %v, want a recovered panic", qi, err)
		}

		res, err := ix.Query(ctx, req, seal.AllowPartial(), seal.CollectStats())
		if err != nil {
			t.Fatalf("partial query %d: %v", qi, err)
		}
		if !res.Degraded || res.Stats.ShardErrors != 1 {
			t.Fatalf("partial query %d: Degraded=%v ShardErrors=%d", qi, res.Degraded, res.Stats.ShardErrors)
		}
		expectExactMinusShard(t, fmt.Sprintf("partial query %d", qi), res.Matches, full[qi], lost)
	}
}

// TestSentinelErrors: corruption of whole-directory artifacts surfaces the
// wrapped sentinels so operators can branch on errors.Is.
func TestSentinelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(20260813))
	objects := shardObjects(120, rng)
	dir := filepath.Join(t.TempDir(), "segs")
	buildSegmented(t, objects, dir, nil)

	// A garbled manifest is corruption, not absence.
	manifest := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(manifest, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seal.Open(dir); !errors.Is(err, seal.ErrCorruptSegment) {
		t.Fatalf("garbled manifest: err = %v, want ErrCorruptSegment", err)
	}

	// An unsupported manifest version is a mismatch.
	if err := os.WriteFile(manifest, []byte(`{"version": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seal.Open(dir); !errors.Is(err, seal.ErrManifestMismatch) {
		t.Fatalf("future manifest: err = %v, want ErrManifestMismatch", err)
	}
}

// TestCloseWaitsForAbandonedShards: a strict query returns on its first
// failed shard and leaves the other shards' searches running; Close must let
// those finish before it unmaps the segments they read. Here shard 0 is still
// asleep in its start hook when the query has failed on shard 3 and Close is
// called — unmapping under it would be a fault, not an error.
func TestCloseWaitsForAbandonedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	objects := shardObjects(200, rng)
	reqs := everyShard(degradedRequests(3, rng))
	dir := filepath.Join(t.TempDir(), "segs")
	buildSegmented(t, objects, dir, reqs)

	faultfs.Install((&faultfs.Injector{}).DelayShard(0, 30*time.Millisecond).PanicShard(3, "injected shard bug"))
	t.Cleanup(faultfs.Uninstall)
	for _, req := range reqs {
		ix, err := seal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Query(context.Background(), req); err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("strict query: err = %v, want a recovered panic", err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
