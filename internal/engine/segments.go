package engine

// Sealed-segment persistence: an engine whose shards use signature filters
// can save everything a rebuild would recompute — the dataset in its
// shard-major row order, with its vocabulary, object IDs and shard row
// bounds, as one mmap-able dataset segment, and
// each shard's posting arena as an mmap-able SEALIDX2 segment (which, for the
// SEAL method, also carries the per-token grid selections in its keys) — and
// reopen the whole index by mapping files instead of re-running signature
// generation. A manifest records the filter configuration and a dataset
// fingerprint so stale or mismatched segment directories are detected and
// rebuilt rather than silently served.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/faultfs"
	"github.com/sealdb/seal/internal/geo"
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
	Fingerprint string          `json:"fingerprint"`
}

// manifestVersion 9 is the gob-free layout above: a version-2 dataset segment,
// whose shards are Z-order row ranges with rows ascending by object ID inside
// each, under a row→ID column and shard row bounds, and version-4 posting
// segments, which are always compressed:
// fixed-width lists under a unary extent table behind a unary group-run table
// over 32-bit nodes. Earlier directories — version 1
// (dataset.snap, parts.gob, shard-N.grids.gob), version 2 (run-length lists),
// version 3 (a directory in every posting segment), version 4 (per-list
// quantization steps and counts; 64-bit keys in a Seal shard), version 5
// (uint32 offset tables), version 6 (a compressed flag, and a fingerprint
// blind to token weights and multi-region footprints), version 7 (rows in
// ID order under stored partition lists) and version 8 (rows in Z-order
// inside each shard, which a limited search, answering in row order, would
// serve out of ID order) — have no reader: they read as a
// manifest mismatch, which every boot path treats as stale and rebuilds. So
// does a current manifest over a posting segment of an earlier version or a
// retired layout (among them the uint64 key array and hash directory the
// token, grid and hybrid-hash filters once wrote): that is another
// generation's file, not a damaged shard, and is never quarantined.
const manifestVersion = 9

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

// Fingerprint hashes a root dataset's observable content — object count,
// vocabulary with its token weights, and per object, in ID order, its region
// coordinates and multi-region footprint (bit-exact) and its token IDs — with
// FNV-1a, so a segment directory can prove it was built from the same corpus
// before its postings are trusted for that corpus. The weights belong to it
// because they set the global signature order and every posting's bound. The
// row order does not: a dataset and its Z-ordered copy hash the same.
func Fingerprint(ds *model.Dataset) string {
	h := fnvWord(fnvOffset, uint64(ds.Len()))
	vocab := ds.Vocab()
	h = fnvWord(h, uint64(vocab.Len()))
	blob, off := vocab.Blob() // read in place: boot fingerprints the whole vocabulary
	for i := 0; i < vocab.Len(); i++ {
		for j := off[i]; j < off[i+1]; j++ {
			h = (h ^ uint64(blob[j])) * fnvPrime
		}
		h *= fnvPrime // the term's terminating 0 byte
		h = fnvWord(h, math.Float64bits(vocab.Weight(text.TokenID(i))))
	}
	rows := make([]model.ObjectID, ds.Len())
	for r := range rows {
		rows[ds.ID(model.ObjectID(r))] = model.ObjectID(r)
	}
	for _, row := range rows {
		h = fnvRect(h, ds.Region(row))
		set := ds.MultiRegion(row) // nil for a single-region object
		h = fnvWord(h, uint64(len(set)))
		for _, m := range set {
			h = fnvRect(h, m)
		}
		toks := ds.Tokens(row)
		h = fnvWord(h, uint64(len(toks)))
		for _, t := range toks {
			h = fnvWord(h, uint64(t))
		}
	}
	return fmt.Sprintf("%016x", h)
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord feeds v's eight bytes, least significant first, to the FNV-1a
// state h.
func fnvWord(h, v uint64) uint64 {
	for range 8 {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h
}

// fnvRect feeds r's corners, as the bits of MinX, MinY, MaxX and MaxY, to h.
func fnvRect(h uint64, r geo.Rect) uint64 {
	h = fnvWord(h, math.Float64bits(r.MinX))
	h = fnvWord(h, math.Float64bits(r.MinY))
	h = fnvWord(h, math.Float64bits(r.MaxX))
	return fnvWord(h, math.Float64bits(r.MaxY))
}

// saveShard writes shard i's segment from a live filter, whose quantized
// posting lists are the segment's, and reports the filter's spec.
func saveShard(dir string, i int, f core.Filter, objects int) (core.FilterSpec, error) {
	src, spec, ok := core.Postings(f)
	if !ok {
		return spec, fmt.Errorf("engine: filter %s does not support segment persistence", f.Name())
	}
	return spec, diskidx.WriteSegment(filepath.Join(dir, segName(i)), src, objects)
}

// SaveSegments persists the engine into dir (created if needed): one SEALIDX2
// segment per shard, the dataset segment (the rows, vocabulary, object IDs
// and shard row bounds), and the manifest. Files of an earlier generation that the new
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

	// The manifest's fingerprint hashes while the segments are written; the
	// file operations stay serial, in the order a crash plan counts them.
	var fingerprint string
	hashed := make(chan struct{})
	go func() {
		defer close(hashed)
		fingerprint = e.Fingerprint()
	}()
	defer func() { <-hashed }() // no save returns with the hash running

	var spec core.FilterSpec
	for i, s := range e.shards {
		if s.filter == nil {
			return fmt.Errorf("engine: cannot save shard %d: %w", i, ErrShardQuarantined)
		}
		sp, err := saveShard(dir, i, s.filter, s.ds.Len())
		if err != nil {
			return err
		}
		if i == 0 {
			spec = sp
		}
	}

	bounds := make([]uint32, 1, len(e.shards)+1)
	for _, s := range e.shards {
		bounds = append(bounds, bounds[len(bounds)-1]+uint32(s.ds.Len()))
	}
	if err := diskidx.WriteDataset(filepath.Join(dir, datasetName), e.root, bounds); err != nil {
		return err
	}

	<-hashed
	m := Manifest{
		Version:     manifestVersion,
		Objects:     e.root.Len(),
		Shards:      len(e.shards),
		Filter:      spec,
		Fingerprint: fingerprint,
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
)

// String names the state for health endpoints and logs.
func (s ShardState) String() string {
	switch s {
	case ShardServing:
		return "serving"
	case ShardQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("ShardState(%d)", int(s))
	}
}

// ShardHealth reports one shard's boot outcome.
type ShardHealth struct {
	Shard int
	State ShardState
	Err   string // the error that quarantined the shard; "" when serving
}

// OpenSegmentsWith boots an engine from dir, serving the dataset mapped from
// its dataset segment. Abandoned *.tmp files from an interrupted save are
// swept first.
//
// A shard whose segment (or filter) is corrupt or missing fails the open,
// unless quarantine is set: then the shard is sidelined, the engine serves
// the healthy ones, strict queries return ErrShardQuarantined and partial
// queries skip it. Failures that compromise every shard — an unreadable
// manifest or dataset segment (it holds the shard bounds too), a fingerprint
// mismatch, or every shard failing — always fail the open. The shards open
// concurrently, but the error reported is the one a serial open would meet
// first: the fingerprint's, then the shards' in shard order.
func OpenSegmentsWith(dir string, quarantine bool) (*Engine, error) {
	// A read-only boot must still be able to open the directory, so sweep
	// failures (e.g. EROFS) are ignored: temps are garbage, not a hazard.
	_, _ = faultfs.SweepTemps(dir)

	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	// The dataset segment holds every shard's rows; without it no shard's
	// contents are known, so even a tolerant open fails.
	dseg, err := diskidx.OpenDataset(filepath.Join(dir, datasetName))
	if err != nil {
		return nil, err
	}
	root := dseg.Dataset()
	e := &Engine{root: root, closers: []io.Closer{dseg}}
	ok := false
	defer func() {
		if !ok {
			e.Close()
		}
	}()
	if m.Objects != root.Len() {
		return nil, fmt.Errorf("%w: segment directory %s was built from a different dataset", ErrManifestMismatch, dir)
	}
	// The fingerprint hashes beside the shard opens. Every mapped segment
	// joins the closers before any outcome is judged, so a failed open
	// releases them all.
	bounds := dseg.Bounds()
	n := m.Shards
	if len(bounds)-1 != n {
		n = 0 // the bounds are corrupt: only the fingerprint, which outranks them, is worth computing
	}
	shards := make([]openedShard, n)
	var fingerprint string
	_ = ForEach(context.Background(), n+1, runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		if i == 0 {
			fingerprint = Fingerprint(root)
			return nil
		}
		o := &shards[i-1]
		sub, err := root.Subset(int(bounds[i-1]), int(bounds[i]))
		if err != nil {
			o.err = err
			return nil
		}
		var f core.Filter
		f, o.seg, o.openErr = openOneShard(dir, i-1, sub, m)
		o.shard = newShard(sub, f)
		return nil
	})
	for _, o := range shards {
		if o.seg != nil {
			e.closers = append(e.closers, o.seg)
		}
	}
	if m.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w: segment directory %s was built from a different dataset", ErrManifestMismatch, dir)
	}
	e.fingerprint = func() string { return m.Fingerprint }
	if len(bounds)-1 != m.Shards {
		return nil, fmt.Errorf("%w: dataset segment bounds %d shards, manifest %d", diskidx.ErrCorrupt, len(bounds)-1, m.Shards)
	}
	for i, o := range shards {
		switch {
		case o.err != nil:
			return nil, fmt.Errorf("engine: shard %d: %w", i, o.err)
		case o.openErr == nil:
		case errors.Is(o.openErr, diskidx.ErrStaleVersion):
			return nil, fmt.Errorf("%w: shard %d: %v", ErrManifestMismatch, i, o.openErr)
		case !quarantine:
			return nil, fmt.Errorf("engine: shard %d: %w", i, o.openErr)
		default:
			o.shard.down = o.openErr
		}
		e.shards = append(e.shards, o.shard)
	}
	if e.Quarantined() == m.Shards {
		return nil, fmt.Errorf("engine: all %d shards failed to open: %w", m.Shards, ErrShardQuarantined)
	}
	ok = true
	return e, nil
}

// openedShard is one shard's outcome of a concurrent open: the error cutting
// its rows, or the shard over them with its mapped segment and filter, or
// without them and the error opening them.
type openedShard struct {
	err     error
	shard   *shard
	seg     *diskidx.Segment
	openErr error
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

// Health reports every shard's state: serving or quarantined. An in-memory
// engine reports all shards serving.
func (e *Engine) Health() []ShardHealth {
	out := make([]ShardHealth, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardHealth{Shard: i, State: ShardServing}
		if s.down != nil {
			out[i].State = ShardQuarantined
			out[i].Err = s.down.Error()
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

// Root returns the engine's root dataset: every object in shard-major order,
// each shard a Z-order range whose rows ascend by ID, each object under its
// ID.
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
