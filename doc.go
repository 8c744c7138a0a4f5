// Package seal is a Go implementation of SEAL (Spatio-tExtuAl simiLarity
// search), the filter-and-verification framework for similarity search over
// regions of interest introduced by Fan, Li, Zhou, Chen and Hu in "SEAL:
// Spatio-Textual Similarity Search", PVLDB 5(9), 2012.
//
// A dataset is a collection of spatio-textual objects, each an axis-aligned
// rectangle (minimum bounding rectangle, MBR) plus a set of textual tokens.
// A query supplies its own region, tokens, and two thresholds; the answer is
// every object o with
//
//	simR(q, o) = |q.R ∩ o.R| / |q.R ∪ o.R| ≥ TauR   (spatial Jaccard), and
//	simT(q, o) = Σ_{t∈q.T∩o.T} w(t) / Σ_{t∈q.T∪o.T} w(t) ≥ TauT
//
// where token weights default to idf over the indexed corpus. Jaccard is
// the only similarity in either dimension: every signature filter's prefix
// bound is derived from it.
//
// # Quick start
//
//	objects := []seal.Object{
//	    {Region: seal.Rect{0, 0, 10, 10}, Tokens: []string{"coffee", "mocha"}},
//	    {Region: seal.Rect{5, 5, 20, 18}, Tokens: []string{"coffee", "tea"}},
//	}
//	ix, err := seal.Build(objects)
//	if err != nil { ... }
//	res, err := ix.Query(ctx, seal.Request{
//	    Region: seal.Rect{2, 2, 12, 12},
//	    Tokens: []string{"coffee", "mocha"},
//	    TauR:   0.2,
//	    TauT:   0.3,
//	})
//	for _, m := range res.Matches { ... }
//
// # Query API
//
// One Request covers both query models. A threshold request (TauR/TauT in
// (0, 1]) returns every object passing both thresholds; a ranked request
// (K > 0) returns the K objects maximizing Alpha·simR + (1−Alpha)·simT above
// similarity floors, with the score in Match.Score. Three execution shapes
// share the same engine:
//
//	res, err := ix.Query(ctx, req, opts...)   // materialized *Results
//	for m, err := range ix.Stream(ctx, req, opts...) { ... }
//	outs := ix.QueryBatch(ctx, reqs, opts...) // per-query Results/errors
//
// QueryOption carries the per-query knobs: Limit and Offset page through
// results, OrderByID/OrderByScore/OrderByArrival pick the order,
// CollectStats and StatsInto report the cost breakdown, CollectTrace and
// TraceInto the execution trace, AllowPartial and ShardTimeout set the
// shard-failure policy. Concurrency is not a knob: a query searches every
// admitted shard at once, and QueryBatch runs one query per CPU at a time.
// Limit is a work reducer: the
// engine counts emissions across shards atomically and interrupts the
// outstanding shard searches (and ranked descents) once the limit is
// reached, so fewer postings are scanned and fewer candidates verified.
// Stream's default arrival order yields matches while shards are still
// searching; breaking out of the loop cancels the remaining work. Stream is
// Query with a yield, on the same path, with each match handed to the loop
// body instead of collected. That path is the one boundary a request
// crosses: one admission, one validation and one compilation against the
// root dataset. A threshold request compiles at its thresholds; a ranked one
// has its K, Alpha and floors checked and then compiles at its floors. Every
// error a request's own content causes wraps ErrInvalidRequest, and the
// engine below takes only the compiled query, whatever its kind. Similarity
// compiles through the same step. The body runs on the caller's goroutine,
// never on a shard's, so a body that panics unwinds the shard searches
// exactly as a break does and its panic reaches the caller unchanged. Under
// arrival order Offset skips matches as they arrive.
//
// Threshold queries default to OrderByID, ranked ones to OrderByScore.
// QueryBatch reports each query's error in its own BatchResult slot instead
// of discarding completed work on the first failure.
//
// # Methods
//
// The default index is the paper's full SEAL method: hierarchical hybrid
// signatures selected per token by the greedy HSS algorithm, probed with
// threshold-aware (prefix) pruning, followed by exact verification. The
// paper's other signature families are available through WithMethod:
// textual signatures only, uniform-grid spatial signatures, and hash-based
// hybrid signatures. Every method persists to a segment directory.
//
// All methods return exactly the same answers — every filter is complete —
// so the choice only affects speed and index size. The §2.3 baselines the
// paper compares against (keyword-first, spatial-first, IR-tree) are not
// serving methods; cmd/sealbench reproduces that comparison
// (sealbench -exp fig16,fig17).
//
// # Sharding and concurrency
//
// WithShards(n) splits the index into n spatial partitions. The index
// cuts its objects into shards of near-equal size along the Z-order (the
// Morton code of each center, ties by ID) at every shard count, and stores
// each shard's rows in ascending ID order, so a shard answers in ID order by
// sweeping a bitmap of its candidate rows; a Match's ID is still the
// object's position in the slice passed to Build. Shards build concurrently, one per CPU at a time; a MethodSeal shard
// additionally fans its per-token grid selection out over GOMAXPROCS
// workers, even when it is the only shard.
// Sharding never changes answers; every shard count returns exactly the
// matches, similarities and top-k order of the 1-shard index, which remains
// the default.
//
// Every query reaches a shard through one execution path, whatever its
// shape. The fan-out first drops the shards that cannot answer — a
// quarantined one fails the query or, under AllowPartial, is counted and
// skipped; a shard whose extent cannot reach TauR is pruned (see "Shard
// pruning") — and runs a single remaining shard on the caller's goroutine,
// or else scatters them, one goroutine per admitted shard; a search that
// its context can stop polls it, so nothing strands the caller. Each
// shard search then runs the same sequence exactly once: count the search
// in flight (so Close can wait for it), start the ShardTimeout clock,
// isolate panics, take a pooled searcher, attach the trace recorder, search,
// return the searcher, and judge lateness by the wall clock. What differs
// between query shapes is only the sink the
// matches go to, each fed by one searcher call that polls the same stop
// hook: ID-ordered (every match, swept from the candidate bitmap in ID order;
// under Limit the sweep stops at Limit successes per shard, and the merge
// keeps the exact prefix), a bounded channel in arrival order (one emission count
// shared across shards ends every scan once Limit is reached), and
// cooperative top-k (descents prune against the running global k-th-best
// score and heap-merge). A failed shard reaches one
// decision point — fatal by default, dropped and counted under AllowPartial,
// never dropped when it is the context or Close that ended it.
//
// # Context-aware search
//
// Query, Stream and QueryBatch honor context.Context: a canceled context or
// an expired deadline stops the shard searches mid-flight and returns (or
// yields) ctx's error promptly.
//
// # Performance
//
// The threshold hot path is filter, then verify: every filter leaves a set
// of candidate rows, and verification computes each one's exact similarities,
// SimT by one sorted merge of the query's and the object's token sets.
// Posting lists are quantized fixed-width columns in one blob (see Storage)
// and are reached by position. Every method names them in one key column, a
// run of 32-bit nodes per group: the methods that look lists up by key
// select the group's run and binary-search it, while MethodSeal's grid
// locator already holds the position of every list it wants. Every per-query
// buffer belongs to a reusable per-shard searcher, so
// steady-state threshold queries allocate nothing. A ranked
// request compiles one query, and each shard's threshold descent resumes
// rather than restarts. Every round collects into one candidate set, and
// the signature filters scan each posting list only past its previous
// cutoff. Each candidate is verified once, against the floors. A warm
// descent allocates only the ranking it returns. Measure the engine with
//
//	bash benchmark/run.sh --workload scan_heavy --trace 1
//
// which drives a real sealserver and reports each layer a query crosses:
// filter and verify time, postings scanned, allocations per query, and the
// end-to-end latency and memory.
//
// # Shard pruning
//
// Every shard knows its extent, the bounding rectangle of its members'
// footprints (computed when the shard is built or opened, never stored).
// Before anything is dispatched the extent is held against the query
// rectangle: with A = |query ∩ extent| no member can score above A/|query|,
// so a shard whose bound falls below TauR (FloorR for ranked requests) is
// skipped — no goroutine, no searcher, no scan. A relative margin of 1e-9
// absorbs the bound's own rounding, so an object sitting exactly on the
// threshold is never lost.
//
// Pruning is always on, for every method, storage layout and shard count,
// and never changes an answer. Stats.ShardsPruned counts the skips beside
// Stats.ShardFanout, a Trace lists each skipped shard with the bound that
// skipped it, and the serving layer exposes the total as
// seal_shards_pruned_total in /metrics and /v1/status.
//
// # Storage
//
// Every signature method serves its posting lists in one layout, the one a
// segment directory (WithSegmentDir, below) stores: a build gathers them in a
// flat float64 arena and ends by quantizing it, so an index built in memory
// and one mapped from disk probe the same bytes, count the same work and
// report the same IndexBytes. (WithCompression, which once chose between the
// two, is a deprecated no-op.) Every list is fixed-width columns with nothing
// ahead of them:
//
//	n × uint16 spatial codes, n × uint16 textual codes (hybrid lists),
//	n × object ID
//
// The posting count n is the list's extent in rows, so none is stored, and
// the extents of all lists are one unary table — a bit a list plus a bit a
// row, where a uint32 offset took four bytes. One code serves every bound of
// every list: the top 16 magnitude bits of the bound's float32 (8 exponent, 8
// mantissa), rounded up — monotone, never below the exact bound, within 2⁻⁸
// of it at every finite code, and meaning the same bound in any list. Object
// IDs take 2 bytes when the shard holds at most 65,536 objects, else 4.
// Quantized bounds only round up, so threshold cutoffs stay supersets and
// exact verification returns identical matches. There are no runs, no
// bitmaps, no per-list scale and no short-list special case: on the index
// SEAL builds, four lists in five hold one or two postings, and every header
// byte was paid by each of them. A bound above the largest finite code, about
// 3.396e38 (possible only under WithTokenWeights or enormous coordinates),
// saturates to the infinity code, which every threshold clears, so such an
// index keeps exact answers on the same 2-byte codes. Decoding runs through
// each searcher's reusable scratch, preserving the zero-allocation steady
// state.
//
// Underneath there is one posting index, not one per method. A posting is an
// object with the bound its list is sorted by; a hybrid posting (MethodSeal,
// MethodHybridHash) is the same posting with a second, textual bound in an
// optional lane beside the first. In memory or mapped, every filter probes it
// through the same call, and a segment records only whether the lane is there
// and how wide its object IDs are. The lists were checked once, as they were
// written or as their segment opened, so a probe checks nothing and cannot
// fail.
//
// WithSegmentDir(dir) persists the index as sealed segments. The directory
// holds exactly three kinds of file, all written through the same container
// (a header, a section table, and page-aligned little-endian sections, each
// CRC-checksummed): shard-N.seg, one SEALIDX2 file per shard with the
// posting lists (the quantized rows under their unary extent table) behind
// their key column, the same for every method: each list is named by a
// (group, node) pair — a token list by (token, 0), a grid list by the (row,
// column) of its cell, a hybrid-hash list by (token, cell) or (bucket, 0), a
// MethodSeal list by (token, grid node) — and stored as a unary table of
// group runs over 32-bit nodes, a node and two bits of metadata a compressed
// list (a probe selects the group's run and binary-searches it);
// dataset.seg, the objects as columns in
// shard-major order, rows ascending by ID inside each Z-order shard
// (regions, one CSR token arena), the row→ID column, the
// shard row bounds, the vocabulary with its weights and multi-region
// footprints; and manifest.json, written last so interrupted saves are never
// mistaken for complete ones.
// There is no snapshot to decode and no gob: Open maps dataset.seg and
// serves the per-object columns in place — a shard is a range of their rows,
// not a copy — and MethodSeal's per-token grid selections are read back off each
// segment's key column (a token's run of nodes is its selection, and a query
// orders the grids it projects onto by their list lengths, so nothing is
// derived at open). When dir
// already matches the objects, their token weights and the configuration (by
// a fingerprint that sums a hash of each object, blind to row order), Build
// memory-maps the segments and serves the mapped dataset instead of
// re-indexing; Open
// boots an index purely from dir. A directory of an older layout version — by
// its manifest, or by the version or retired layout of a posting segment
// under a current manifest (the raw float64 arenas, or the uint64 key array
// and hash directory the token, grid and hybrid-hash methods once wrote) —
// reads as ErrManifestMismatch from Open and as stale — rebuilt and
// overwritten — from Build; it is never quarantined shard by shard. Mapped
// indexes should be Closed when done. Close may race Query, QueryBatch and
// Stream: calls already admitted finish first (so do shard searches a
// returned query left behind), later ones return ErrClosed, and nothing reads
// an unmapped page.
//
//	ix, _ := seal.Build(objects, seal.WithSegmentDir("idx")) // first run: builds and saves
//	ix, _ = seal.Open("idx")                                 // later: boots from disk, no indexing
//	defer ix.Close()
//
// IndexStats reports the storage state: Mapped is true for a segment-backed
// index, and SegmentBytes is the directory's size on disk beside IndexBytes,
// the resident (or mapped) footprint of the quantized lists.
//
// # Failure modes and recovery
//
// Saves are crash-safe: every artifact streams into a temp file that is
// fsynced and atomically renamed into place, and the manifest — removed
// before any shard is rewritten, written after all of them — is the commit
// point. A crash mid-save leaves the previous generation or a complete new
// one, never a torn index; stale temp files are swept at the next open.
//
// Open CRC-verifies every section of every file and quarantines a corrupt
// or missing shard segment instead of failing: the index boots, serves the
// surviving shards, and reports the damage through Health (per-shard
// serving/quarantined states) and Quarantined. A damaged dataset segment — it
// holds the rows every shard is a range of — fails the open with
// ErrCorruptSegment. Exact answers come back by rebuilding: Build with
// WithSegmentDir falls back to a full rebuild when the directory is stale or
// damaged.
//
// Queries over a degraded index are strict by default: they fail with
// ErrShardQuarantined (match with errors.Is, alongside ErrCorruptSegment
// and ErrManifestMismatch) rather than pass a partial answer off as
// complete. AllowPartial opts in to degraded answers: failed, panicked,
// timed-out, or quarantined shards are dropped from the merge, the answer
// is exactly the full answer minus the lost shards' objects (bit-identical
// similarities on every surviving match), Results.Degraded is set, and
// Stats.ShardErrors counts the drops. ShardTimeout bounds each shard's
// search under AllowPartial; a panic inside a shard search is recovered
// into an error in every mode.
//
//	ix, err := seal.Open(dir)                  // quarantines damage, never torn
//	res, err := ix.Query(ctx, req)             // strict: ErrShardQuarantined
//	res, err = ix.Query(ctx, req,
//		seal.AllowPartial(), seal.ShardTimeout(50*time.Millisecond))
//	if res.Degraded { ... }                    // exact minus the lost shards
//
// # Serving
//
// cmd/sealserver wraps the library in a production HTTP daemon: it boots an
// index (memory-mapping a sealed-segment directory when one matches,
// building and saving otherwise), optionally warms the mapped pages with
// synthetic queries before reporting ready, and serves until SIGTERM with a
// graceful drain.
//
//	sealgen -kind twitter -n 100000 -o twitter.seg
//	sealserver -data twitter.seg -segments /var/lib/seal/tw -warmup 64
//	sealserver -segments /var/lib/seal/tw     # later boots: no dataset file needed
//
// The -data file sealgen writes is a segment directory's dataset.seg: it is
// checksummed and validated in full as it opens, like every other file the
// daemon reads.
//
// POST /v1/query answers one query, POST /v1/explain the same query with its
// trace in place of its matches, POST /v1/query/batch many (each entry
// answered as its own /v1/query, one per CPU at a time), and GET /v1/stream
// emits NDJSON — one record per match as the engine verifies it, with a
// client disconnect canceling the remaining shard work. Every answer leaves
// through one encoder, byte-identical to encoding/json's. GET /healthz
// and /readyz split liveness from readiness, GET /metrics exposes
// Prometheus-format counters and latency histograms (including engine work:
// postings scanned, candidates verified, realized shard fan-out), and GET
// /v1/status reports build info, the dataset fingerprint, boot provenance,
// and per-shard health. With -allow-partial the daemon serves degraded
// answers as HTTP 206 (strict daemons answer 503 while a shard is
// quarantined), -shard-timeout adds a per-shard search deadline, and a boot
// with -data present recovers from an unusable segment directory by
// clearing and rebuilding it. The serving layer lives in internal/server
// behind plain http.Handlers; examples/server drives a complete session
// in-process.
//
// # Observability
//
// CollectTrace records a per-query execution trace and attaches it to
// Results.Trace; TraceInto(&tr) fills a caller-owned Trace instead (and is
// the only way to trace Stream, whose iterator has no Results: an
// arrival-order stream fills it, and StatsInto, however it ended — drained,
// abandoned or failed). A Trace is
// one timeline anchored at admission: each Span names its pipeline stage
// (admit, filter, verify, merge), the shard and filter family that ran it,
// its offset from admission, duration, and work counters (postings scanned,
// candidates, results). StageTotals sums durations by stage for a quick
// where-did-the-time-go split. The trace also lists every shard skipped by
// pruning, with the overlap bound that proved it could not reach TauR.
//
//	var tr seal.Trace
//	res, _ := ix.Query(ctx, req, seal.TraceInto(&tr))
//	for stage, d := range tr.StageTotals() { fmt.Println(stage, d) }
//
// Tracing is strictly opt-in and observation-only: a traced query returns
// bit-identical matches and stats (the differential tests enforce this per
// shard count and execution mode), and an untraced query pays nothing — the
// recorder hooks no-op on a nil recorder and the hot path stays at 0
// allocs/op. Stats times the same four stages (AdmitTime, FilterTime,
// VerifyTime, MergeTime) on the clock reads the trace's spans reuse, so
// StageTotals equals them to the nanosecond.
//
// The server traces only on request: POST /v1/explain answers with the
// trace, stage totals and pruned shards instead of matches, and
// /v1/query?trace=1 rides the trace alongside a normal answer. Queries
// slower than -slow-query are counted and logged with their stats. /metrics
// adds per-stage latency histograms (seal_stage_seconds, read from every
// served query's Stats), the slow-query counter, and Go runtime vitals;
// -pprof exposes /debug/pprof off-by-default; without it the daemon samples
// no heap allocations.
package seal
