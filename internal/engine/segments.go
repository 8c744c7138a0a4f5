package engine

// Sealed-segment persistence: an engine whose shards use signature filters
// can save everything a rebuild would recompute — the dataset with its
// vocabulary and the shard partition as one mmap-able dataset segment, and
// each shard's posting arena as an mmap-able SEALIDX2 segment (which, for the
// SEAL method, also carries the per-token grid selections in its keys) — and
// reopen the whole index by mapping files instead of re-running signature
// generation. A manifest records the filter configuration and a dataset
// fingerprint so stale or mismatched segment directories are detected and
// rebuilt rather than silently served.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/faultfs"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// Segment directory layout: the manifest, the dataset segment, and one
// posting segment per shard. Nothing else belongs in the directory.
const (
	manifestName = "manifest.json"
	datasetName  = "dataset.seg"
)

func segName(shard int) string { return fmt.Sprintf("shard-%d.seg", shard) }

// Manifest describes a segment directory.
type Manifest struct {
	Version     int             `json:"version"`
	Objects     int             `json:"objects"`
	Shards      int             `json:"shards"`
	Filter      core.FilterSpec `json:"filter"`
	Compressed  bool            `json:"compressed"`
	Fingerprint string          `json:"fingerprint"`
}

// manifestVersion 6 is the gob-free layout above with version-4 posting
// segments: fixed-width lists under a unary extent table, a key array and
// directory for the filters that look lists up by key, and a unary token-run
// table over 32-bit grid nodes for a Seal shard. Earlier directories — version
// 1 (dataset.snap, parts.gob, shard-N.grids.gob), version 2 (run-length
// lists), version 3 (a directory in every posting segment), version 4
// (per-list quantization steps and counts; 64-bit keys in a Seal shard) and
// version 5 (uint32 offset tables) — have no reader: they read as a manifest
// mismatch, which every boot path treats as stale and rebuilds. So does a
// current manifest over a posting segment of an earlier version: that is
// another generation's file, not a damaged shard, and is never quarantined.
const manifestVersion = 6

// ErrNoSegments reports a directory without a readable manifest. Because the
// manifest is written last and removed first, this is the normal state of an
// interrupted save — it signals "rebuild", never "serve what's there".
var ErrNoSegments = errors.New("engine: no segment manifest")

// ErrManifestMismatch reports a manifest that is readable but describes a
// different dataset or an unsupported layout version — the directory is
// intact, it just does not belong to this index.
var ErrManifestMismatch = errors.New("engine: segment manifest mismatch")

// ErrShardQuarantined reports a query (or open) touching a shard that was
// sidelined at boot because its segment was corrupt or missing. Queries with
// partial results allowed skip such shards instead.
var ErrShardQuarantined = errors.New("engine: shard quarantined")

// ReadManifest loads dir's manifest, or ErrNoSegments if absent.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoSegments
		}
		return nil, fmt.Errorf("engine: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: parsing manifest: %v", diskidx.ErrCorrupt, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported manifest version %d", ErrManifestMismatch, m.Version)
	}
	return &m, nil
}

// Fingerprint hashes the dataset's observable content — object count,
// vocabulary, region coordinates (bit-exact), and per-object token IDs —
// with FNV-1a, so a segment directory can prove it was built from the same
// corpus before its postings are trusted for that corpus.
func Fingerprint(ds *model.Dataset) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		buf[4] = byte(v >> 32)
		buf[5] = byte(v >> 40)
		buf[6] = byte(v >> 48)
		buf[7] = byte(v >> 56)
		h.Write(buf[:])
	}
	put(uint64(ds.Len()))
	vocab := ds.Vocab()
	put(uint64(vocab.Len()))
	var term []byte // one buffer for every term: boot fingerprints the whole vocabulary
	for i := 0; i < vocab.Len(); i++ {
		term = append(append(term[:0], vocab.Term(text.TokenID(i))...), 0)
		h.Write(term)
	}
	for i := 0; i < ds.Len(); i++ {
		id := model.ObjectID(i)
		r := ds.Region(id)
		put(math.Float64bits(r.MinX))
		put(math.Float64bits(r.MinY))
		put(math.Float64bits(r.MaxX))
		put(math.Float64bits(r.MaxY))
		toks := ds.Tokens(id)
		put(uint64(len(toks)))
		for _, t := range toks {
			put(uint64(t))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// saveShard writes shard i's segment from a live filter and reports the
// filter's spec and whether its postings are stored encoded. Baselines (scan,
// keyword-first, spatial-first, IR-tree) have no posting arena to persist and
// report an error.
func saveShard(dir string, i int, f core.Filter, objects int) (spec core.FilterSpec, compressed bool, err error) {
	src, spec, ok := core.Postings(f)
	if !ok {
		return spec, false, fmt.Errorf("engine: filter %s does not support segment persistence", f.Name())
	}
	_, compressed = src.(*invidx.Compressed)
	return spec, compressed, diskidx.WriteSegment(filepath.Join(dir, segName(i)), src, objects)
}

// SaveSegments persists the engine into dir (created if needed): one SEALIDX2
// segment per shard, the dataset segment (dataset, vocabulary and shard
// partition), and the manifest. Files of an earlier generation that the new
// one does not overwrite — more shards, another layout version, abandoned
// temps — are removed, so the directory holds exactly the artifact set.
//
// The save is crash-safe. Every artifact is written to a *.tmp file, fsynced
// and atomically renamed into place, and the manifest is the enforced commit
// point: it is removed before the first byte of new data is written and
// recreated only after every other artifact is durable, so a crash at any
// step leaves a directory that reads as ErrNoSegments (rebuild), never one
// that claims completeness over torn or mixed-generation files.
func (e *Engine) SaveSegments(dir string) error {
	if err := faultfs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	// Drop the commit point first: from here until the new manifest lands
	// the directory is formally "no segments", so an interrupted save reads
	// as a clean rebuild signal on the next boot.
	if err := faultfs.Remove(filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if err := sweepStale(dir, len(e.shards)); err != nil {
		return err
	}

	var spec core.FilterSpec
	compressed := false
	for i, s := range e.shards {
		if s.filter == nil {
			return fmt.Errorf("engine: cannot save shard %d: %w", i, ErrShardQuarantined)
		}
		sp, comp, err := saveShard(dir, i, s.filter, s.ds.Len())
		if err != nil {
			return err
		}
		if i == 0 {
			spec = sp
		}
		compressed = compressed || comp
	}

	parts := make([][]model.ObjectID, len(e.shards))
	for i, s := range e.shards {
		parts[i] = s.globalIDs // nil for the single-shard identity mapping
	}
	if err := diskidx.WriteDataset(filepath.Join(dir, datasetName), e.root, parts); err != nil {
		return err
	}

	m := Manifest{
		Version:     manifestVersion,
		Objects:     e.root.Len(),
		Shards:      len(e.shards),
		Filter:      spec,
		Compressed:  compressed,
		Fingerprint: Fingerprint(e.root),
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	// The manifest lands last — its atomic rename is the commit point that
	// flips the directory from "rebuilding" to "complete".
	if err := faultfs.Atomic(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	}); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// sweepStale removes every file in dir that a save of the given shard count
// will not overwrite: the artifact set is manifest.json, dataset.seg and
// shard-0..shards-1.seg, and anything else — a higher shard of a wider
// generation, a version-1 gob artifact, an abandoned temp — would otherwise
// outlive the generation it belonged to. Subdirectories are not the index's
// and are left alone.
func sweepStale(dir string, shards int) error {
	keep := map[string]bool{manifestName: true, datasetName: true}
	for i := 0; i < shards; i++ {
		keep[segName(i)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || keep[e.Name()] {
			continue
		}
		if err := faultfs.Remove(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("engine: sweeping %s: %w", e.Name(), err)
		}
	}
	return nil
}

// DirBytes sums the sizes of the files in a segment directory — what the
// index costs on disk.
func DirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, fmt.Errorf("engine: %w", err)
		}
		total += info.Size()
	}
	return total, nil
}

// ShardState classifies a shard's boot-time health.
type ShardState int

const (
	// ShardServing is a shard that opened cleanly from its segment.
	ShardServing ShardState = iota
	// ShardQuarantined is a shard whose segment was corrupt or missing and
	// that was sidelined instead of failing the open. It answers no queries.
	ShardQuarantined
	// ShardRebuilt is a shard whose segment was corrupt or missing and that
	// was rebuilt in memory from the dataset (OpenOptions.Repair).
	// It serves exact answers.
	ShardRebuilt
)

// String names the state for health endpoints and logs.
func (s ShardState) String() string {
	switch s {
	case ShardServing:
		return "serving"
	case ShardQuarantined:
		return "quarantined"
	case ShardRebuilt:
		return "rebuilt"
	default:
		return fmt.Sprintf("ShardState(%d)", int(s))
	}
}

// ShardHealth reports one shard's boot outcome.
type ShardHealth struct {
	Shard int
	State ShardState
	Err   string // the error that quarantined or triggered the rebuild; "" when serving
}

// OpenReport summarizes what a tolerant open found and did.
type OpenReport struct {
	Health      []ShardHealth
	SweptTemps  int // abandoned *.tmp files removed
	Quarantined int
	Rebuilt     int
}

// OpenOptions selects how OpenSegmentsWith treats a shard whose segment is
// corrupt or missing. The zero value is strict: any shard failure fails the
// whole open.
type OpenOptions struct {
	// Quarantine sidelines a failed shard instead of failing the open. The
	// engine serves the healthy shards; strict queries return
	// ErrShardQuarantined, partial queries skip the shard. An open where
	// every shard fails is still an error.
	Quarantine bool
	// Repair rebuilds a failed shard's filter in memory from the dataset
	// (the manifest records its configuration) and best-effort re-saves its
	// segment. Implies tolerance of the failure; the rebuilt
	// shard serves exact answers.
	Repair bool
}

// OpenSegmentsAt boots an engine from dir over an already-loaded dataset: the
// directory's dataset segment supplies only the shard partition. The
// manifest's fingerprint must match root.
func OpenSegmentsAt(dir string, root *model.Dataset) (*Engine, error) {
	if root == nil {
		return nil, errors.New("engine: OpenSegmentsAt requires a dataset")
	}
	e, _, err := OpenSegmentsWith(dir, root, OpenOptions{})
	return e, err
}

// OpenSegmentsWith boots an engine from dir with explicit failure handling.
// A nil root serves the dataset mapped from the directory. Abandoned *.tmp
// files from an interrupted save are swept first. Per-shard failures (corrupt
// or missing segment, or filter) are handled per o; failures that compromise
// every shard — an unreadable manifest or dataset segment (it holds the
// partition too), or a fingerprint mismatch — always fail the open.
//
// The report is non-nil whenever the engine is, and its Health covers every
// shard.
func OpenSegmentsWith(dir string, root *model.Dataset, o OpenOptions) (*Engine, *OpenReport, error) {
	rep := &OpenReport{}
	// A read-only boot must still be able to open the directory, so sweep
	// failures (e.g. EROFS) are ignored: temps are garbage, not a hazard.
	rep.SweptTemps, _ = faultfs.SweepTemps(dir)

	m, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	// The dataset segment maps every shard's IDs; without it no shard's
	// contents are known, so even a tolerant open fails.
	dseg, err := diskidx.OpenDataset(filepath.Join(dir, datasetName))
	if err != nil {
		return nil, nil, err
	}
	// The engine owns the mapping either way: the partition aliases it even
	// when the caller's dataset, not the mapped one, is served.
	e := &Engine{root: root, closers: []io.Closer{dseg}}
	ok := false
	defer func() {
		if !ok {
			e.Close()
		}
	}()
	if root == nil {
		root = dseg.Dataset()
		e.root = root
	}
	parts := dseg.Parts()
	if m.Objects != root.Len() || m.Fingerprint != Fingerprint(root) {
		return nil, nil, fmt.Errorf("%w: segment directory %s was built from a different dataset", ErrManifestMismatch, dir)
	}
	if len(parts) != m.Shards {
		return nil, nil, fmt.Errorf("%w: dataset segment lists %d shards, manifest %d", diskidx.ErrCorrupt, len(parts), m.Shards)
	}
	tolerant := o.Quarantine || o.Repair
	for i := 0; i < m.Shards; i++ {
		sub := root
		if parts[i] != nil {
			sub, err = root.Subset(parts[i])
			if err != nil {
				return nil, nil, fmt.Errorf("engine: shard %d: %w", i, err)
			}
		}
		f, seg, openErr := openOneShard(dir, i, sub, m)
		if openErr == nil {
			e.closers = append(e.closers, seg)
			e.shards = append(e.shards, newShard(sub, parts[i], f))
			rep.Health = append(rep.Health, ShardHealth{Shard: i, State: ShardServing})
			continue
		}
		if errors.Is(openErr, diskidx.ErrStaleVersion) {
			return nil, nil, fmt.Errorf("%w: shard %d: %v", ErrManifestMismatch, i, openErr)
		}
		if !tolerant {
			return nil, nil, fmt.Errorf("engine: shard %d: %w", i, openErr)
		}
		if o.Repair {
			f, rbErr := core.BuildFilter(sub, m.Filter)
			if rbErr == nil {
				// A directory saved compressed gets compressed postings back,
				// so the resaved segment matches the manifest.
				if m.Compressed {
					core.CompressPostings(f)
				}
				note := openErr.Error()
				// Best-effort resave: a failure (read-only disk, still-bad
				// media) leaves the rebuilt shard serving from memory.
				if _, _, saveErr := saveShard(dir, i, f, sub.Len()); saveErr != nil {
					note = fmt.Sprintf("%v (resave failed: %v)", openErr, saveErr)
				}
				s := newShard(sub, parts[i], f)
				s.rebuilt = true
				e.shards = append(e.shards, s)
				rep.Health = append(rep.Health, ShardHealth{Shard: i, State: ShardRebuilt, Err: note})
				rep.Rebuilt++
				continue
			}
			openErr = fmt.Errorf("%w (rebuild failed: %v)", openErr, rbErr)
		}
		if !o.Quarantine {
			return nil, nil, fmt.Errorf("engine: shard %d: %w", i, openErr)
		}
		s := newShard(sub, parts[i], nil)
		s.down = openErr
		e.shards = append(e.shards, s)
		rep.Health = append(rep.Health, ShardHealth{Shard: i, State: ShardQuarantined, Err: openErr.Error()})
		rep.Quarantined++
	}
	if rep.Quarantined == m.Shards {
		return nil, nil, fmt.Errorf("engine: all %d shards failed to open: %w", m.Shards, ErrShardQuarantined)
	}
	ok = true
	return e, rep, nil
}

// openOneShard maps shard i's segment and wires its filter. On failure the
// mapping is released; on success the caller owns closing seg.
func openOneShard(dir string, i int, sub *model.Dataset, m *Manifest) (f core.Filter, seg *diskidx.Segment, err error) {
	seg, err = diskidx.OpenMapped(filepath.Join(dir, segName(i)))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			seg.Close()
		}
	}()
	if seg.Objects() != sub.Len() {
		return nil, nil, fmt.Errorf("%w: segment indexes %d objects, dataset shard has %d", diskidx.ErrCorrupt, seg.Objects(), sub.Len())
	}
	f, err = core.OpenFilter(sub, m.Filter, seg.Source())
	if err != nil {
		return nil, nil, err
	}
	return f, seg, nil
}

// Health reports every shard's state: serving, quarantined, or rebuilt. An
// in-memory engine reports all shards serving.
func (e *Engine) Health() []ShardHealth {
	out := make([]ShardHealth, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardHealth{Shard: i, State: ShardServing}
		switch {
		case s.down != nil:
			out[i].State = ShardQuarantined
			out[i].Err = s.down.Error()
		case s.rebuilt:
			out[i].State = ShardRebuilt
		}
	}
	return out
}

// Quarantined counts shards sidelined at open time.
func (e *Engine) Quarantined() int {
	n := 0
	for _, s := range e.shards {
		if s.down != nil {
			n++
		}
	}
	return n
}

// Root returns the engine's parent dataset.
func (e *Engine) Root() *model.Dataset { return e.root }

// Close releases any mapped segments backing the engine's filters. Calls
// already admitted by Enter — in-flight queries, and the shard searches that
// returned queries abandoned — finish first; later ones get ErrClosed. A
// purely in-memory engine has nothing to release but closes the same way.
// Close is idempotent.
func (e *Engine) Close() error {
	e.gate.Lock()
	e.closed = true
	closers := e.closers
	e.closers = nil
	e.gate.Unlock()
	// Not under the lock: a query waiting to Enter one of its shard searches
	// must get its ErrClosed, or the count it holds would never drain.
	e.inflight.Wait()
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
