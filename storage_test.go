package seal_test

// Storage differential property tests: saturating bound codes and mmap-backed
// segments are storage variants, not algorithms, so every combination of
// filter method, shard count, and storage variant must return bit-identical
// answers — same IDs, same similarities, same top-k order — to the in-memory
// build it mirrors.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/server"
)

func expectSameAnswers(t *testing.T, label string, base, got *seal.Index, queries []seal.Request) {
	t.Helper()
	for qi, q := range queries {
		want, err := answer(base, q)
		if err != nil {
			t.Fatal(err)
		}
		have, err := answer(got, q)
		if err != nil {
			t.Fatalf("%s query %d: %v", label, qi, err)
		}
		if len(have) != len(want) {
			t.Fatalf("%s query %d: %d matches, want %d", label, qi, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("%s query %d match %d: %+v, want %+v", label, qi, i, have[i], want[i])
			}
		}
	}
	for qi, q := range queries[:4] {
		tq := seal.Request{Region: q.Region, Tokens: q.Tokens, K: 1 + qi*3, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
		want, err := answer(base, tq)
		if err != nil {
			t.Fatal(err)
		}
		have, err := answer(got, tq)
		if err != nil {
			t.Fatalf("%s topk %d: %v", label, qi, err)
		}
		if len(have) != len(want) {
			t.Fatalf("%s topk %d: %d results, want %d", label, qi, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("%s topk %d rank %d: %+v, want %+v", label, qi, i, have[i], want[i])
			}
		}
	}
}

// hugeCorpus scales a corpus and its queries until every area and every token
// weight is beyond float32 range — bounds past the finite codes, which
// saturate to infinity. Similarity is scale-free, so the scaled corpus is as
// good a differential fixture as the original.
func hugeCorpus(objects []seal.Object, queries []seal.Request) ([]seal.Object, []seal.Request, map[string]float64) {
	scale := func(r seal.Rect) seal.Rect {
		const k = 1e20
		return seal.Rect{MinX: r.MinX * k, MinY: r.MinY * k, MaxX: r.MaxX * k, MaxY: r.MaxY * k}
	}
	weights := map[string]float64{}
	outO := make([]seal.Object, len(objects))
	for i, o := range objects {
		outO[i] = seal.Object{Region: scale(o.Region), Tokens: o.Tokens}
		for _, r := range o.Regions {
			outO[i].Regions = append(outO[i].Regions, scale(r))
		}
		for _, tok := range o.Tokens {
			weights[tok] = 1e39 * float64(1+len(tok))
		}
	}
	outQ := make([]seal.Request, len(queries))
	for i, q := range queries {
		outQ[i] = seal.Request{Region: scale(q.Region), Tokens: q.Tokens, TauR: q.TauR, TauT: q.TauT}
	}
	return outO, outQ, weights
}

// TestStorageDifferential: for every signature method and shard count, the
// saturating-code, segment-saved, segment-reopened, and Open-booted variants
// must answer exactly like the in-memory build.
func TestStorageDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	objects := shardObjects(250, rng)
	queries := shardQueries(12, rng)
	hugeObjects, hugeQueries, weights := hugeCorpus(objects, queries)
	hugeWeights := seal.WithTokenWeights(weights)
	hugeOracle := newWeightedOracle(t, hugeObjects, weights)

	methods := []struct {
		name string
		opts []seal.Option
	}{
		{"seal", []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(8)}},
		{"token", []seal.Option{seal.WithMethod(seal.MethodTokenFilter)}},
		{"grid", []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(64)}},
		{"hybrid", []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithGranularity(32), seal.WithHashBuckets(127)}},
	}
	for _, method := range methods {
		t.Run(method.name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 3, 8} {
				opts := func(extra ...seal.Option) []seal.Option {
					all := append([]seal.Option(nil), method.opts...)
					all = append(all, seal.WithShards(shards))
					return append(all, extra...)
				}
				base, err := seal.Build(objects, opts()...)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}

				// Bounds outside float32 range saturate to the infinity code:
				// the same corpus blown up until its areas and its token
				// weights both leave it, held to the brute-force scan (the
				// in-memory build is quantized too), then saved and reopened.
				hugeBase, err := seal.Build(hugeObjects, opts(hugeWeights)...)
				if err != nil {
					t.Fatalf("shards=%d huge: %v", shards, err)
				}
				for qi, q := range hugeQueries {
					q.TauR, q.TauT = 0.01, 0.01 // at the fixture's own thresholds nothing matches
					got, err := answer(hugeBase, q)
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, fmt.Sprintf("shards=%d huge query %d", shards, qi), got, hugeOracle.threshold(t, q))
					ranked := seal.Request{Region: q.Region, Tokens: q.Tokens, K: 5, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
					if got, err = answer(hugeBase, ranked); err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, fmt.Sprintf("shards=%d huge topk %d", shards, qi), got, hugeOracle.ranked(t, ranked))
				}
				exactDir := filepath.Join(t.TempDir(), "exact")
				exact, err := seal.Build(hugeObjects, opts(hugeWeights, seal.WithSegmentDir(exactDir))...)
				if err != nil {
					t.Fatalf("shards=%d exact: %v", shards, err)
				}
				expectSameAnswers(t, fmt.Sprintf("shards=%d exact", shards), hugeBase, exact, hugeQueries)
				for i := 0; i < shards; i++ {
					seg, err := os.ReadFile(filepath.Join(exactDir, fmt.Sprintf("shard-%d.seg", i)))
					if err != nil {
						t.Fatal(err)
					}
					if flags := binary.LittleEndian.Uint32(seg[12:]); flags&(1<<1|1<<2) != 1<<1 {
						t.Fatalf("shards=%d: shard %d segment flags %#x, want compressed with bit 2 clear", shards, i, flags)
					}
				}
				exactOpened, err := seal.Open(exactDir)
				if err != nil {
					t.Fatalf("shards=%d exact Open: %v", shards, err)
				}
				expectSameAnswers(t, fmt.Sprintf("shards=%d exact opened", shards), hugeBase, exactOpened, hugeQueries)
				if err := exactOpened.Close(); err != nil {
					t.Fatal(err)
				}

				dir := filepath.Join(t.TempDir(), "segs")
				saved, err := seal.Build(objects, opts(seal.WithSegmentDir(dir))...)
				if err != nil {
					t.Fatalf("shards=%d save: %v", shards, err)
				}
				if saved.Stats().Mapped {
					t.Fatalf("shards=%d: first build reported Mapped", shards)
				}
				expectSameAnswers(t, fmt.Sprintf("shards=%d saved", shards), base, saved, queries)

				reopened, err := seal.Build(objects, opts(seal.WithSegmentDir(dir))...)
				if err != nil {
					t.Fatalf("shards=%d reopen: %v", shards, err)
				}
				if !reopened.Stats().Mapped {
					t.Fatalf("shards=%d: rebuild did not map existing segments (stats %+v)", shards, reopened.Stats())
				}
				expectSameAnswers(t, fmt.Sprintf("shards=%d mapped", shards), base, reopened, queries)
				if err := reopened.Close(); err != nil {
					t.Fatal(err)
				}

				opened, err := seal.Open(dir)
				if err != nil {
					t.Fatalf("shards=%d Open: %v", shards, err)
				}
				if !opened.Stats().Mapped {
					t.Fatalf("shards=%d: Open did not report Mapped", shards)
				}
				if got := opened.Stats().Shards; got != shards {
					t.Fatalf("shards=%d: Open reports %d shards", shards, got)
				}
				expectSameAnswers(t, fmt.Sprintf("shards=%d opened", shards), base, opened, queries)
				if err := opened.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestInMemoryMatchesSegments: an index serves the same quantized lists
// whether it was built in memory or saved and mapped back by Open, so for
// every method at 1 and 3 shards the two agree on IndexBytes and, query by
// query, on the matches and on every work count: candidates, postings
// scanned, lists probed and shards pruned.
func TestInMemoryMatchesSegments(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20261015))
	objects := shardObjects(400, rng)
	queries := shardQueries(300, rng)
	methods := []struct {
		name string
		opts []seal.Option
	}{
		{"seal", []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(8)}},
		{"token", []seal.Option{seal.WithMethod(seal.MethodTokenFilter)}},
		{"grid", []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(64)}},
		{"hybrid", []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithGranularity(32), seal.WithHashBuckets(127)}},
	}
	for _, method := range methods {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", method.name, shards), func(t *testing.T) {
				opts := append(slices.Clone(method.opts), seal.WithShards(shards))
				built, err := seal.Build(objects, opts...)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				saved, err := seal.Build(objects, append(opts, seal.WithSegmentDir(dir))...)
				if err != nil {
					t.Fatal(err)
				}
				if err := saved.Close(); err != nil {
					t.Fatal(err)
				}
				opened, err := seal.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer opened.Close()
				if b, o := built.Stats().IndexBytes, opened.Stats().IndexBytes; b != o {
					t.Fatalf("IndexBytes: %d built, %d opened", b, o)
				}
				matched := 0
				for qi, q := range queries {
					want, err := built.Query(ctx, q, seal.CollectStats())
					if err != nil {
						t.Fatal(err)
					}
					got, err := opened.Query(ctx, q, seal.CollectStats())
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Matches, want.Matches) {
						t.Fatalf("query %d: opened matches %v, built %v", qi, got.Matches, want.Matches)
					}
					g, w := got.Stats, want.Stats
					if g.Candidates != w.Candidates || g.PostingsScanned != w.PostingsScanned || g.ListsProbed != w.ListsProbed || g.ShardsPruned != w.ShardsPruned {
						t.Fatalf("query %d: opened candidates/postings/lists/pruned %d/%d/%d/%d, built %d/%d/%d/%d", qi,
							g.Candidates, g.PostingsScanned, g.ListsProbed, g.ShardsPruned, w.Candidates, w.PostingsScanned, w.ListsProbed, w.ShardsPruned)
					}
					matched += len(want.Matches)
				}
				if matched == 0 {
					t.Fatal("no query matched anything; the fixture proves nothing")
				}
			})
		}
	}
}

// TestSegmentDirAlwaysCompressed: a segment directory holds the quantized
// postings the index serves. A default-options build into one writes flag bit
// 1 in every posting segment and answers like the in-memory build; a rebuild
// maps the directory, and so does Open.
func TestSegmentDirAlwaysCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	objects := shardObjects(150, rng)
	queries := shardQueries(8, rng)
	dir := filepath.Join(t.TempDir(), "segs")
	method := []seal.Option{seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2)}

	base, err := seal.Build(objects, method...)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := seal.Build(objects, append(slices.Clone(method), seal.WithSegmentDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Stats().Mapped {
		t.Fatal("a first build into a segment directory reported Mapped")
	}
	expectSameAnswers(t, "saved", base, saved, queries)
	if err := saved.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		seg, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%d.seg", i)))
		if err != nil {
			t.Fatal(err)
		}
		if flags := binary.LittleEndian.Uint32(seg[12:]); flags&(1<<1) == 0 {
			t.Fatalf("shard %d segment flags %#x: bit 1 (compressed) clear", i, flags)
		}
	}
	ix, err := seal.Build(objects, append(slices.Clone(method), seal.WithSegmentDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Stats().Mapped {
		t.Fatal("a rebuild did not map the directory")
	}
	expectSameAnswers(t, "mapped", base, ix, queries)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if !opened.Stats().Mapped {
		t.Fatal("Open did not report Mapped")
	}
	expectSameAnswers(t, "opened", base, opened, queries)
}

// TestBucketedHybridSegmentsRoundTrip: a hybrid-hash index with hash buckets
// names its lists (bucket, 0) — the one kind whose groups are buckets — and
// its segments round-trip like every other's: built and saved, then opened,
// it answers every query as the in-memory build does, over the same index
// bytes.
func TestBucketedHybridSegmentsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	objects := shardObjects(250, rng)
	queries := shardQueries(12, rng)
	method := []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithGranularity(32), seal.WithHashBuckets(127), seal.WithShards(2)}
	base, err := seal.Build(objects, method...)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segs")
	saved, err := seal.Build(objects, append(slices.Clone(method), seal.WithSegmentDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	expectSameAnswers(t, "saved", base, saved, queries)
	if err := saved.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := seal.Open(dir)
	if err != nil {
		t.Fatalf("Open of bucketed hybrid segments: %v", err)
	}
	if st := opened.Stats(); !st.Mapped || st.Shards != 2 || st.IndexBytes != base.Stats().IndexBytes {
		t.Fatalf("opened stats %+v, want 2 mapped shards of %d index bytes", st, base.Stats().IndexBytes)
	}
	expectSameAnswers(t, "opened", base, opened, queries)
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredKeyColumnIsStale reads testdata/retired-keys: a segment directory
// of the paper's seven objects under the token method in 2 shards, written
// when the token, grid and hybrid-hash kinds stored a uint64 key a list and a
// hash directory over them (sections 1 and 6) under the same segment version
// and manifest version 8. So it is stale twice over: its dataset segment also
// keeps shard 0's rows in Z-order, not ascending by ID, as every version-8
// directory does. It is another generation's directory, not a damaged one:
// Open refuses it as a manifest mismatch without quarantining a shard, and
// Build over a copy of it rebuilds it, after which Open maps the new files.
func TestRetiredKeyColumnIsStale(t *testing.T) {
	fixture := filepath.Join("testdata", "retired-keys")
	_, err := seal.Open(fixture)
	if !errors.Is(err, seal.ErrManifestMismatch) || errors.Is(err, seal.ErrShardQuarantined) || errors.Is(err, seal.ErrCorruptSegment) {
		t.Fatalf("Open of the retired key column: %v, want ErrManifestMismatch alone", err)
	}
	dir := filepath.Join(t.TempDir(), "segs")
	if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	opts := []seal.Option{seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2), seal.WithSegmentDir(dir)}
	rebuilt, err := seal.Build(paperObjects(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if rebuilt.Stats().Mapped {
		t.Fatal("the retired key column was served instead of rebuilt")
	}
	opened, err := seal.Open(dir)
	if err != nil {
		t.Fatalf("Open after the rebuild: %v", err)
	}
	defer opened.Close()
	if st := opened.Stats(); !st.Mapped || st.Shards != 2 {
		t.Fatalf("opened stats %+v, want 2 mapped shards", st)
	}
	base, err := seal.Build(paperObjects(), seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	wide := seal.Request{Region: seal.Rect{MaxX: 120, MaxY: 120}, Tokens: []string{"tea", "ice"}, TauR: 0.01, TauT: 0.1}
	loose := paperQuery()
	loose.TauR, loose.TauT = 0.05, 0.1
	expectSameAnswers(t, "rebuilt", base, opened, []seal.Request{paperQuery(), loose, wide, {Region: wide.Region, Tokens: []string{"coffee"}, TauR: 0.001, TauT: 0.01}})
}

// TestRetiredSimilarityDataset: a dataset segment once carried a Dice or
// cosine similarity in its header flags (spatial Dice in bit 0, textual Dice
// or cosine as 1 or 2 in bits 8–15; 0x0101 for Dice/Dice). Jaccard is the
// only similarity, so a dataset.seg with any of those flags is corrupt: Open
// refuses it, and Build over the same objects rebuilds it byte for byte as a
// fresh save writes it.
func TestRetiredSimilarityDataset(t *testing.T) {
	objects := shardObjects(120, rand.New(rand.NewSource(58)))
	opts := func(dir string) []seal.Option {
		return []seal.Option{seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2), seal.WithSegmentDir(dir)}
	}
	fresh := filepath.Join(t.TempDir(), "fresh")
	saved, err := seal.Build(objects, opts(fresh)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := saved.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(fresh, "dataset.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		flags uint32
	}{
		{"dice/jaccard", 0x0001},
		{"jaccard/dice", 0x0100},
		{"jaccard/cosine", 0x0200},
		{"dice/dice", 0x0101},
		{"dice/cosine", 0x0201},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "segs")
			if err := os.CopyFS(dir, os.DirFS(fresh)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "dataset.seg")
			retired := slices.Clone(want)
			binary.LittleEndian.PutUint32(retired[12:], tc.flags)
			if err := os.WriteFile(path, retired, 0o644); err != nil {
				t.Fatal(err)
			}
			if ix, err := seal.Open(dir); !errors.Is(err, seal.ErrCorruptSegment) {
				if err == nil {
					ix.Close()
				}
				t.Fatalf("Open of a retired %s dataset: %v, want ErrCorruptSegment", tc.name, err)
			}
			rebuilt, err := seal.Build(objects, opts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			defer rebuilt.Close()
			if rebuilt.Stats().Mapped {
				t.Fatalf("a retired %s dataset was served instead of rebuilt", tc.name)
			}
			if got, err := os.ReadFile(path); err != nil || !slices.Equal(got, want) {
				t.Fatalf("rebuilt dataset.seg differs from a fresh save (read error %v)", err)
			}
		})
	}
}

// TestSegmentDirRebuildsOnMismatch: a segment directory built from different
// objects or a different configuration must be rebuilt, not served.
func TestSegmentDirRebuildsOnMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	objects := shardObjects(120, rng)
	changed := shardObjects(120, rand.New(rand.NewSource(78)))
	dir := filepath.Join(t.TempDir(), "segs")

	if _, err := seal.Build(objects, seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(32), seal.WithSegmentDir(dir)); err != nil {
		t.Fatal(err)
	}
	// Different corpus, same directory: fingerprint mismatch forces a
	// rebuild that overwrites the directory.
	ix, err := seal.Build(changed, seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(32), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Mapped {
		t.Fatal("mismatched dataset was served from stale segments")
	}
	// Different granularity: configuration mismatch also rebuilds.
	ix2, err := seal.Build(changed, seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(64), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Stats().Mapped {
		t.Fatal("mismatched granularity was served from stale segments")
	}
	// A corrupt segment file falls back to rebuild as well.
	seg := filepath.Join(dir, "shard-0.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix3, err := seal.Build(changed, seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(64), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ix3.Stats().Mapped {
		t.Fatal("corrupt segment was served")
	}
	if _, err := seal.Open(dir); err != nil {
		t.Fatalf("rebuild did not repair the corrupt directory: %v", err)
	}
}

// TestSegmentDirRebuildsUnderOtherWeights: token weights set the global
// signature order and every posting's bound, so a directory built under other
// weights belongs to another corpus. Built under weights A and then, in the
// same directory, under B — A reversed — the second build must rebuild rather
// than map A's postings, and answer exactly as the oracle under B, for every
// method whose bounds the weights shape.
func TestSegmentDirRebuildsUnderOtherWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objects := shardObjects(300, rng)
	queries := shardQueries(60, rng)
	var terms []string
	for _, o := range objects {
		terms = append(terms, o.Tokens...)
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)
	a, b := map[string]float64{}, map[string]float64{}
	for i, term := range terms {
		a[term], b[term] = float64(i+1), float64(len(terms)-i)
	}
	oracle := newWeightedOracle(t, objects, b)
	for _, method := range []struct {
		name string
		opts []seal.Option
	}{
		{"seal", []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(8)}},
		{"token", []seal.Option{seal.WithMethod(seal.MethodTokenFilter)}},
		{"hybrid-hash", []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithGranularity(32), seal.WithHashBuckets(127)}},
	} {
		t.Run(method.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "segs")
			built, err := seal.Build(objects, append(slices.Clone(method.opts), seal.WithTokenWeights(a), seal.WithSegmentDir(dir))...)
			if err != nil {
				t.Fatal(err)
			}
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			ix, err := seal.Build(objects, append(slices.Clone(method.opts), seal.WithTokenWeights(b), seal.WithSegmentDir(dir))...)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if ix.Stats().Mapped {
				t.Fatal("a directory built under other token weights was mapped")
			}
			hits := 0
			for qi, q := range queries {
				for _, tauT := range []float64{0.05, 0.2, 0.4} {
					q.TauR, q.TauT = 0.01, tauT
					got, err := answer(ix, q)
					if err != nil {
						t.Fatal(err)
					}
					want := oracle.threshold(t, q)
					requireSameMatches(t, fmt.Sprintf("query %d tauT %g", qi, tauT), got, want)
					hits += len(want)
				}
			}
			if hits == 0 {
				t.Fatal("no query matched: the fixture tests nothing")
			}
		})
	}
}

// TestFingerprintSeesEveryObservable holds Index.Fingerprint to its contract:
// the same objects under the same token weights share a fingerprint, and a
// corpus that differs in anything a posting or an answer depends on does not.
// That includes two corpora that differ only inside a multi-region object —
// the same bounding rectangle around other regions.
func TestFingerprintSeesEveryObservable(t *testing.T) {
	corpus := func() []seal.Object {
		return []seal.Object{
			{Region: seal.Rect{MinX: 5, MinY: 5, MaxX: 9, MaxY: 9}, Tokens: []string{"a", "b"}},
			{Regions: []seal.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, {MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, {MinX: 3, MinY: 3, MaxX: 4, MaxY: 4}}, Tokens: []string{"b", "c"}},
			{Region: seal.Rect{MinX: 2, MinY: 6, MaxX: 4, MaxY: 8}, Tokens: []string{"c"}},
		}
	}
	weights := map[string]float64{"a": 1, "b": 2, "c": 3}
	fingerprint := func(objects []seal.Object, weights map[string]float64) string {
		ix, err := seal.Build(objects, seal.WithTokenWeights(weights))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		return ix.Fingerprint()
	}
	base := fingerprint(corpus(), weights)
	for _, tc := range []struct {
		name    string
		change  func(objects []seal.Object, weights map[string]float64)
		differs bool
	}{
		{"identical", func([]seal.Object, map[string]float64) {}, false},
		{"a region coordinate", func(o []seal.Object, _ map[string]float64) { o[0].Region.MaxX = 9.5 }, true},
		{"a token", func(o []seal.Object, _ map[string]float64) { o[2].Tokens = []string{"a"} }, true},
		{"a token weight", func(_ []seal.Object, w map[string]float64) { w["b"] = 2.5 }, true},
		{"a token weight's last bit", func(_ []seal.Object, w map[string]float64) { w["b"] = math.Nextafter(2, 3) }, true},
		{"a term's spelling", func(o []seal.Object, w map[string]float64) {
			for i := range o {
				for j, tok := range o[i].Tokens {
					if tok == "c" {
						o[i].Tokens[j] = "d"
					}
				}
			}
			delete(w, "c")
			w["d"] = 3
		}, true},
		{"a multi-region footprint under the same MBR", func(o []seal.Object, _ map[string]float64) {
			o[1].Regions[1] = seal.Rect{MinX: 1, MinY: 1, MaxX: 3, MaxY: 2}
		}, true},
		{"object order", func(o []seal.Object, _ map[string]float64) { o[0], o[2] = o[2], o[0] }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			objects, w := corpus(), maps.Clone(weights)
			tc.change(objects, w)
			if got := fingerprint(objects, w); (got != base) != tc.differs {
				t.Fatalf("fingerprint %s against the base corpus's %s: want differs=%v", got, base, tc.differs)
			}
		})
	}
}

// TestStoredFingerprintAllocs: an opened index reports engine.Fingerprint
// of the dataset it serves, the value its manifest check verified, without
// hashing the dataset again: a status request or a log line that asks for it
// allocates nothing. A closed index reports "".
func TestStoredFingerprintAllocs(t *testing.T) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segs")
	built, err := seal.Build(server.SnapshotObjects(ds), seal.WithShards(4), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	builtPrint := built.Fingerprint()
	built.Close()
	seg, err := diskidx.OpenDataset(filepath.Join(dir, "dataset.seg"))
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Fingerprint(seg.Dataset())
	seg.Close()
	if builtPrint != want {
		t.Fatalf("built index reports fingerprint %s, its dataset segment hashes to %s", builtPrint, want)
	}
	ix, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Fingerprint(); got != want {
		t.Fatalf("opened index reports fingerprint %s, want %s", got, want)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(20, func() { ix.Fingerprint() }); allocs != 0 {
			t.Errorf("Fingerprint on an opened index: %.0f allocations, want 0", allocs)
		}
	}
	ix.Close()
	if got := ix.Fingerprint(); got != "" {
		t.Fatalf("closed index reports fingerprint %q", got)
	}
}

// TestMappedStringsOutliveClose: an opened index reads its vocabulary's term
// blob off the mapped dataset segment, but no string that leaves it aliases
// the mapping. Tokens taken from Index.Object, from server.SnapshotObjects of
// the opened dataset and from its vocabulary's Term still read as the
// in-memory build's once the index and the segment are closed and unmapped.
func TestMappedStringsOutliveClose(t *testing.T) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segs")
	built, err := seal.Build(server.SnapshotObjects(ds), seal.WithShards(4), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	want := make([]seal.Object, built.Len())
	for id := range want {
		if want[id], err = built.Object(id); err != nil {
			t.Fatal(err)
		}
	}

	ix, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromObject := make([][]string, ix.Len())
	for id := range fromObject {
		obj, err := ix.Object(id)
		if err != nil {
			t.Fatal(err)
		}
		fromObject[id] = obj.Tokens
	}
	seg, err := diskidx.OpenDataset(filepath.Join(dir, "dataset.seg"))
	if err != nil {
		t.Fatal(err)
	}
	opened := seg.Dataset()
	snapshot := server.SnapshotObjects(opened)
	type term struct {
		id, i int // token i of object id
		s     string
	}
	var terms []term
	for row := model.ObjectID(0); row < 20; row++ {
		id := int(opened.ID(row))
		for i, tok := range opened.Tokens(row) {
			terms = append(terms, term{id, i, opened.Vocab().Term(tok)})
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	for id, w := range want {
		if !slices.Equal(fromObject[id], w.Tokens) {
			t.Fatalf("object %d: Object tokens after Close %q, want %q", id, fromObject[id], w.Tokens)
		}
		if !slices.Equal(snapshot[id].Tokens, w.Tokens) {
			t.Fatalf("object %d: SnapshotObjects tokens after Close %q, want %q", id, snapshot[id].Tokens, w.Tokens)
		}
	}
	for _, tm := range terms {
		if w := want[tm.id].Tokens[tm.i]; tm.s != w {
			t.Fatalf("object %d token %d: Term after Close %q, want %q", tm.id, tm.i, tm.s, w)
		}
	}
}

// TestOpenMissingDir: Open on an empty or absent directory errors cleanly.
func TestOpenMissingDir(t *testing.T) {
	if _, err := seal.Open(t.TempDir()); err == nil {
		t.Fatal("Open on empty dir should fail")
	}
	if _, err := seal.Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("Open on missing dir should fail")
	}
}

// segmentDirNames lists dir's entries.
func segmentDirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestVersion1DirectoryIsStale: the gob-era layout has no reader, and neither
// has a version-6, version-7, version-8 or version-9 manifest — version 8 is
// the directory whose rows lie in Z-order inside each shard, version 9 the
// one whose fingerprint FNV-1a hashed — nor a current one
// over posting segments of the retired raw layout (flag bit 1 clear). Each reads as a mismatch from Open,
// and as "stale" from Build(WithSegmentDir), which rebuilds over it and leaves
// exactly the current artifact set behind — none of the old generation's
// files.
func TestVersion1DirectoryIsStale(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	objects := shardObjects(160, rng)
	queries := shardQueries(8, rng)
	// ageManifest rewrites the manifest's version.
	ageManifest := func(t *testing.T, dir, version string) {
		path := filepath.Join(dir, "manifest.json")
		man, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		aged := strings.Replace(string(man), `"version": 10`, `"version": `+version, 1)
		if aged == string(man) {
			t.Fatalf("manifest carries no version 10 to age: %s", man)
		}
		if err := os.WriteFile(path, []byte(aged), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ages := []struct {
		name string
		age  func(t *testing.T, dir string)
	}{
		// A version-1 manifest beside version-1 artifacts (and a third shard of
		// a once-wider generation).
		{"version 1", func(t *testing.T, dir string) {
			ageManifest(t, dir, "1")
			for _, stale := range []string{"dataset.snap", "parts.gob", "shard-0.grids.gob", "shard-1.grids.gob", "shard-2.seg"} {
				if err := os.WriteFile(filepath.Join(dir, stale), []byte("gob-era bytes"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"version 6", func(t *testing.T, dir string) { ageManifest(t, dir, "6") }},
		{"version 7", func(t *testing.T, dir string) { ageManifest(t, dir, "7") }},
		{"version 8", func(t *testing.T, dir string) { ageManifest(t, dir, "8") }},
		{"version 9", func(t *testing.T, dir string) { ageManifest(t, dir, "9") }},
		{"raw posting segments", func(t *testing.T, dir string) {
			for i := 0; i < 2; i++ {
				path := filepath.Join(dir, fmt.Sprintf("shard-%d.seg", i))
				seg, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(seg[12:], binary.LittleEndian.Uint32(seg[12:])&^(1<<1))
				if err := os.WriteFile(path, seg, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range ages {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "segs")
			opts := []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(7), seal.WithShards(2), seal.WithSegmentDir(dir)}
			base, err := seal.Build(objects, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			tc.age(t, dir)

			if _, err := seal.Open(dir); !errors.Is(err, seal.ErrManifestMismatch) {
				t.Fatalf("Open of a stale directory: %v, want ErrManifestMismatch", err)
			}
			rebuilt, err := seal.Build(objects, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer rebuilt.Close()
			if rebuilt.Stats().Mapped {
				t.Fatal("a stale directory was served instead of rebuilt")
			}
			want := []string{"dataset.seg", "manifest.json", "shard-0.seg", "shard-1.seg"}
			if got := segmentDirNames(t, dir); !slices.Equal(got, want) {
				t.Fatalf("rebuilt directory holds %v, want %v", got, want)
			}
			opened, err := seal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			expectSameAnswers(t, "rebuilt over "+tc.name, base, opened, queries)
		})
	}
}

// TestTokenWeightsSurviveOpen: the dataset segment stores the weight table,
// so an index built with explicit token weights reopens with those weights —
// the ones its posting bounds were computed from — not with idf ones.
func TestTokenWeightsSurviveOpen(t *testing.T) {
	weights := map[string]float64{
		"mocha": 0.8, "coffee": 0.3, "starbucks": 0.8, "ice": 1.3, "tea": 0.6, "unused": 2.5,
	}
	dir := filepath.Join(t.TempDir(), "segs")
	built, err := seal.Build(paperObjects(), seal.WithTokenWeights(weights), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	opened, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	for term, w := range weights {
		if got, ok := opened.TokenWeight(term); !ok || got != w {
			t.Errorf("reopened weight of %q = %v, %v; want %v", term, got, ok, w)
		}
	}
	for id := 0; id < built.Len(); id++ {
		wantR, wantT, err := built.Similarity(paperQuery(), id)
		if err != nil {
			t.Fatal(err)
		}
		gotR, gotT, err := opened.Similarity(paperQuery(), id)
		if err != nil {
			t.Fatal(err)
		}
		if gotR != wantR || gotT != wantT {
			t.Errorf("object %d: reopened similarities %v/%v, built %v/%v", id, gotR, gotT, wantR, wantT)
		}
	}
	expectSameAnswers(t, "explicit weights", built, opened, []seal.Request{paperQuery(), paperQuery(), paperQuery(), paperQuery()})
}

// TestTokenWeightsMustBeFinite: a NaN or +Inf token weight fails Build and
// names its term, rather than building an index whose saved vocabulary Open
// would refuse. A huge finite weight is fine: its posting bounds saturate to
// the infinity code, and the index builds into a segment directory, opens,
// and answers as the oracle does.
func TestTokenWeightsMustBeFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	objects := shardObjects(250, rng)
	weights := map[string]float64{}
	for i := 0; i < 30; i++ {
		weights[fmt.Sprintf("t%d", i)] = 0.5 + rng.Float64()*2
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		weights["t7"] = bad
		if _, err := seal.Build(objects, seal.WithTokenWeights(weights)); err == nil || !strings.Contains(err.Error(), `"t7"`) {
			t.Fatalf("weight %g: Build error %v, want one naming term t7", bad, err)
		}
	}
	weights["t7"] = 1e300
	dir := filepath.Join(t.TempDir(), "segs")
	built, err := seal.Build(objects, seal.WithTokenWeights(weights), seal.WithShards(2), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	oracle := newWeightedOracle(t, objects, weights)
	// Queries around indexed objects, half of them carrying the heavy token,
	// at thresholds low enough to match their neighbours.
	hits := 0
	for qi := 0; qi < 24; qi++ {
		o := objects[qi*10]
		r := o.Region
		if len(o.Regions) > 0 {
			r = o.Regions[0]
		}
		q := seal.Request{Region: seal.Rect{MinX: r.MinX - 15, MinY: r.MinY - 15, MaxX: r.MaxX + 15, MaxY: r.MaxY + 15},
			Tokens: o.Tokens, TauR: 0.001, TauT: 0.02}
		if qi%2 == 0 {
			q.Tokens = append(slices.Clone(q.Tokens), "t7")
		}
		got, err := answer(opened, q)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.threshold(t, q)
		requireSameMatches(t, fmt.Sprintf("query %d", qi), got, want)
		hits += len(want)
	}
	if hits == 0 {
		t.Fatal("no query matched: the fixture tests nothing")
	}
}

// TestClosedIndex: after Close every entry point that would read the dataset
// or the postings answers ErrClosed — on a mapped index those pages are gone
// — and what the index handed out earlier stays readable, because terms are
// heap strings, never views of the mapping.
func TestClosedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	objects := shardObjects(120, rng)
	req := shardQueries(1, rng)[0]
	dir := filepath.Join(t.TempDir(), "segs")
	built, err := seal.Build(objects, seal.WithShards(2), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	opened, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for label, ix := range map[string]*seal.Index{"built": built, "opened": opened} {
		before, err := ix.Object(7)
		if err != nil {
			t.Fatal(err)
		}
		copied := make([]string, len(before.Tokens))
		for i, tok := range before.Tokens {
			copied[i] = strings.Clone(tok)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", label, err)
		}
		ctx := context.Background()
		if _, err := ix.Query(ctx, req); !errors.Is(err, seal.ErrClosed) {
			t.Errorf("%s: Query after Close: %v", label, err)
		}
		if _, err := ix.Query(ctx, seal.Request{Region: req.Region, Tokens: req.Tokens, K: 3, Alpha: 0.5}); !errors.Is(err, seal.ErrClosed) {
			t.Errorf("%s: ranked Query after Close: %v", label, err)
		}
		for i, br := range ix.QueryBatch(ctx, []seal.Request{req, req}) {
			if !errors.Is(br.Err, seal.ErrClosed) {
				t.Errorf("%s: QueryBatch entry %d after Close: %v", label, i, br.Err)
			}
		}
		for _, opts := range [][]seal.QueryOption{nil, {seal.OrderByID()}} {
			n := 0
			for _, err := range ix.Stream(ctx, req, opts...) {
				n++
				if !errors.Is(err, seal.ErrClosed) {
					t.Errorf("%s: Stream after Close yielded %v", label, err)
				}
			}
			if n != 1 {
				t.Errorf("%s: Stream after Close yielded %d pairs, want the one error", label, n)
			}
		}
		if _, err := ix.Object(7); !errors.Is(err, seal.ErrClosed) {
			t.Errorf("%s: Object after Close: %v", label, err)
		}
		if _, _, err := ix.Similarity(shardQueries(1, rng)[0], 7); !errors.Is(err, seal.ErrClosed) {
			t.Errorf("%s: Similarity after Close: %v", label, err)
		}
		if len(copied) == 0 || !slices.Equal(before.Tokens, copied) {
			t.Errorf("%s: tokens read before Close are %v after it, were %v", label, before.Tokens, copied)
		}
	}
}

// TestOpenAllocs: Open maps the directory; it must not allocate per object,
// per token or per (token, shard) — the gob-era boot made about two
// allocations per object and three per (token, shard). The golden corpus
// opens in a few hundred allocations, and four times the objects with more
// than twice the vocabulary add only what the vocabulary's map needs.
func TestOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	opens := func(n int) float64 {
		ds, err := gen.Twitter(gen.TwitterConfig{N: n, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "segs")
		ix, err := seal.Build(server.SnapshotObjects(ds),
			seal.WithMethod(seal.MethodSeal), seal.WithShards(4), seal.WithSegmentDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		ix.Close()
		allocs := testing.AllocsPerRun(3, func() {
			ix, err := seal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ix.Close()
		})
		t.Logf("%d objects, %d terms: %.0f allocations per Open", n, ds.Vocab().Len(), allocs)
		return allocs
	}
	golden, larger := opens(2000), opens(8000)
	if golden > 1000 {
		t.Errorf("Open of the 2 000-object golden directory: %.0f allocations, want at most 1000", golden)
	}
	if larger > golden*1.5 {
		t.Errorf("Open of 8 000 objects: %.0f allocations against %.0f for 2 000 — allocation count scales with the corpus", larger, golden)
	}
}
