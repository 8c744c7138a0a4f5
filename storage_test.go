package seal_test

// Storage differential property tests: compression and mmap-backed segments
// are storage layouts, not algorithms, so every combination of filter
// method, shard count, and storage variant must return bit-identical answers
// — same IDs, same similarities, same top-k order — to the in-memory flat
// build it mirrors.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/server"
	"github.com/sealdb/seal/internal/testutil"
)

func expectSameAnswers(t *testing.T, label string, base, got *seal.Index, queries []seal.Query) {
	t.Helper()
	for qi, q := range queries {
		want, err := answer(base, q.Request())
		if err != nil {
			t.Fatal(err)
		}
		have, err := answer(got, q.Request())
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
		tq := seal.TopKQuery{Region: q.Region, Tokens: q.Tokens, K: 1 + qi*3, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
		want, err := answer(base, tq.Request())
		if err != nil {
			t.Fatal(err)
		}
		have, err := answer(got, tq.Request())
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
// weight is beyond float32 range — the bounds the quantized posting layout
// cannot hold. Similarity is scale-free, so the scaled corpus is as good a
// differential fixture as the original.
func hugeCorpus(objects []seal.Object, queries []seal.Query) ([]seal.Object, []seal.Query, seal.Option) {
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
	outQ := make([]seal.Query, len(queries))
	for i, q := range queries {
		outQ[i] = seal.Query{Region: scale(q.Region), Tokens: q.Tokens, TauR: q.TauR, TauT: q.TauT}
	}
	return outO, outQ, seal.WithTokenWeights(weights)
}

// TestStorageDifferential: for every signature method and shard count, the
// compressed (quantized and exact), segment-saved, segment-reopened, and
// Open-booted variants must answer exactly like the in-memory flat build.
func TestStorageDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	objects := shardObjects(250, rng)
	queries := shardQueries(12, rng)
	hugeObjects, hugeQueries, hugeWeights := hugeCorpus(objects, queries)

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

				comp, err := seal.Build(objects, opts(seal.WithCompression(seal.CompressionQuantized))...)
				if err != nil {
					t.Fatalf("shards=%d quant: %v", shards, err)
				}
				if !comp.Stats().Compressed {
					t.Fatalf("shards=%d quant: Stats().Compressed = false", shards)
				}
				expectSameAnswers(t, fmt.Sprintf("shards=%d quant", shards), base, comp, queries)

				// The exact layout is the fallback for bounds outside float32
				// range: the same corpus blown up until its areas and its
				// token weights both leave it, compressed, saved and reopened.
				hugeBase, err := seal.Build(hugeObjects, opts(hugeWeights)...)
				if err != nil {
					t.Fatalf("shards=%d huge: %v", shards, err)
				}
				exactDir := filepath.Join(t.TempDir(), "exact")
				exact, err := seal.Build(hugeObjects, opts(hugeWeights, seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(exactDir))...)
				if err != nil {
					t.Fatalf("shards=%d exact: %v", shards, err)
				}
				expectSameAnswers(t, fmt.Sprintf("shards=%d exact", shards), hugeBase, exact, hugeQueries)
				for i := 0; i < shards; i++ {
					seg, err := os.ReadFile(filepath.Join(exactDir, fmt.Sprintf("shard-%d.seg", i)))
					if err != nil {
						t.Fatal(err)
					}
					if flags := binary.LittleEndian.Uint32(seg[12:]); flags&(1<<1|1<<2) != 1<<1|1<<2 {
						t.Fatalf("shards=%d: shard %d segment flags %#x, want compressed with the exact layout", shards, i, flags)
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
				saved, err := seal.Build(objects, opts(seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(dir))...)
				if err != nil {
					t.Fatalf("shards=%d save: %v", shards, err)
				}
				if saved.Stats().Mapped {
					t.Fatalf("shards=%d: first build reported Mapped", shards)
				}
				expectSameAnswers(t, fmt.Sprintf("shards=%d saved", shards), base, saved, queries)

				reopened, err := seal.Build(objects, opts(seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(dir))...)
				if err != nil {
					t.Fatalf("shards=%d reopen: %v", shards, err)
				}
				if !reopened.Stats().Mapped || !reopened.Stats().Compressed {
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

// TestSegmentDirUncompressed: raw (uncompressed) segments round-trip too.
func TestSegmentDirUncompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	objects := shardObjects(150, rng)
	queries := shardQueries(8, rng)
	dir := filepath.Join(t.TempDir(), "segs")

	base, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter), seal.WithSegmentDir(dir)); err != nil {
		t.Fatal(err)
	}
	opened, err := seal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.Stats().Compressed {
		t.Fatal("raw segments reported Compressed")
	}
	expectSameAnswers(t, "raw segments", base, opened, queries)
}

// stripDirectory rewrites the posting segment at path without its key
// directory section: same keys, same lists, nil slots.
func stripDirectory(t *testing.T, path string) {
	t.Helper()
	seg, err := diskidx.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	bare, err := testutil.WithoutDirectory(seg.Source(), seg.Objects())
	if err != nil {
		t.Fatal(err)
	}
	if bare.SizeBytes() >= seg.Source().SizeBytes() {
		t.Fatalf("%s carried no directory to strip", path)
	}
	if err := diskidx.WriteSegment(path+".bare", bare, seg.Objects()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".bare", path); err != nil {
		t.Fatal(err)
	}
}

// TestKeyedSegmentsServeWithoutDirectory: the key directory is an
// accelerator, not part of the format's meaning. A hybrid-hash directory —
// a filter that looks every list up by key — whose posting segments are
// rewritten without the section opens, and answers every query as the
// in-memory build does, its probes finding their keys by binary search.
func TestKeyedSegmentsServeWithoutDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	objects := shardObjects(250, rng)
	queries := shardQueries(12, rng)
	method := []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithGranularity(32), seal.WithHashBuckets(127), seal.WithShards(2)}
	base, err := seal.Build(objects, method...)
	if err != nil {
		t.Fatal(err)
	}
	for name, comp := range map[string]seal.Compression{"raw": seal.CompressionNone, "quantized": seal.CompressionQuantized} {
		dir := filepath.Join(t.TempDir(), "segs")
		saved, err := seal.Build(objects, append(slices.Clone(method), seal.WithCompression(comp), seal.WithSegmentDir(dir))...)
		if err != nil {
			t.Fatal(err)
		}
		if err := saved.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			stripDirectory(t, filepath.Join(dir, fmt.Sprintf("shard-%d.seg", i)))
		}
		opened, err := seal.Open(dir)
		if err != nil {
			t.Fatalf("%s: Open of keyed segments without their directory: %v", name, err)
		}
		if st := opened.Stats(); !st.Mapped || st.Shards != 2 {
			t.Fatalf("%s: opened stats %+v, want 2 mapped shards", name, st)
		}
		expectSameAnswers(t, name+" without directory", base, opened, queries)
		if err := opened.Close(); err != nil {
			t.Fatal(err)
		}
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

// TestSegmentDirRejectsBaselines: methods without posting lists cannot
// persist segments.
func TestSegmentDirRejectsBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objects := shardObjects(50, rng)
	for _, m := range []seal.Method{seal.MethodScan, seal.MethodKeywordFirst, seal.MethodSpatialFirst, seal.MethodIRTree} {
		if _, err := seal.Build(objects, seal.WithMethod(m), seal.WithSegmentDir(t.TempDir())); err == nil {
			t.Fatalf("method %d: WithSegmentDir should fail", m)
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

// TestVersion1DirectoryIsStale: the gob-era layout has no reader. Its
// manifest reads as a mismatch from Open, and as "stale" from
// Build(WithSegmentDir), which rebuilds over it and leaves exactly the
// current artifact set behind — none of the old generation's files.
func TestVersion1DirectoryIsStale(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	objects := shardObjects(160, rng)
	queries := shardQueries(8, rng)
	dir := filepath.Join(t.TempDir(), "segs")
	opts := []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(7), seal.WithShards(2),
		seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(dir)}
	base, err := seal.Build(objects, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	// Age the directory: a version-1 manifest beside version-1 artifacts
	// (and a third shard of a once-wider generation).
	man, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(string(man), `"version": 6`, `"version": 1`, 1)
	if v1 == string(man) {
		t.Fatalf("manifest carries no version 6 to age: %s", man)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{"dataset.snap", "parts.gob", "shard-0.grids.gob", "shard-1.grids.gob", "shard-2.seg"} {
		if err := os.WriteFile(filepath.Join(dir, stale), []byte("gob-era bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := seal.Open(dir); !errors.Is(err, seal.ErrManifestMismatch) {
		t.Fatalf("Open of a version-1 directory: %v, want ErrManifestMismatch", err)
	}
	rebuilt, err := seal.Build(objects, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if rebuilt.Stats().Mapped {
		t.Fatal("a version-1 directory was served instead of rebuilt")
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
	expectSameAnswers(t, "rebuilt over version 1", base, opened, queries)
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
	expectSameAnswers(t, "explicit weights", built, opened, []seal.Query{paperQuery(), paperQuery(), paperQuery(), paperQuery()})
}

// TestClosedIndex: after Close every entry point that would read the dataset
// or the postings answers ErrClosed — on a mapped index those pages are gone
// — and what the index handed out earlier stays readable, because terms are
// heap strings, never views of the mapping.
func TestClosedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	objects := shardObjects(120, rng)
	req := shardQueries(1, rng)[0].Request()
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
		if _, err := ix.Footprint(7); !errors.Is(err, seal.ErrClosed) {
			t.Errorf("%s: Footprint after Close: %v", label, err)
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
			seal.WithMethod(seal.MethodSeal), seal.WithShards(4),
			seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(dir))
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
