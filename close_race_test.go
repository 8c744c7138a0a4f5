package seal_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/faultfs"
)

// TestCloseDuringQueries races Close against in-flight Query, QueryBatch and
// Stream calls, and against the point reads of the mapped dataset (Object,
// Similarity, Fingerprint, TokenWeight), on a mapped index. Every call must
// either complete with the exact answer or report ErrClosed — never a degraded or torn answer, and
// never a read of a page Close has already unmapped, which is a SIGSEGV that
// takes the process down, not a recoverable panic.
func TestCloseDuringQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	objects := shardObjects(300, rng)
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		TauR:   0.0005,
		TauT:   0.0005,
	}
	ranked := seal.Request{Region: req.Region, Tokens: req.Tokens, K: 5, Alpha: 0.5, FloorR: 0.001, FloorT: 0.001}
	ctx := context.Background()

	for _, shards := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "segs")
		built, err := seal.Build(objects, seal.WithShards(shards), seal.WithSegmentDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		full, err := built.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		top, err := built.Query(ctx, ranked)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Matches) < 5 {
			t.Fatalf("want a dense query, got %d matches", len(full.Matches))
		}
		same := func(label string, got, want []seal.Match) error {
			if !slices.Equal(got, want) {
				return fmt.Errorf("%s: %d matches, want %d: a call that was not refused must answer exactly", label, len(got), len(want))
			}
			return nil
		}
		query := func(label string, want []seal.Match, r seal.Request, opts ...seal.QueryOption) func(*seal.Index) error {
			return func(ix *seal.Index) error {
				res, err := ix.Query(ctx, r, opts...)
				if err != nil {
					return err
				}
				if res.Degraded {
					return fmt.Errorf("%s: a closing index answered degraded", label)
				}
				return same(label, res.Matches, want)
			}
		}
		// The point reads walk every object, so some call is always inside the
		// mapped columns when Close gets to unmapping them.
		wantObjects := make([]seal.Object, len(objects))
		wantSims := make([][2]float64, len(objects))
		for id := range objects {
			if wantObjects[id], err = built.Object(id); err != nil {
				t.Fatal(err)
			}
			if wantSims[id][0], wantSims[id][1], err = built.Similarity(req, id); err != nil {
				t.Fatal(err)
			}
		}
		wantFingerprint := built.Fingerprint()
		wantWeights := map[string]float64{}
		for _, o := range objects {
			for _, tok := range o.Tokens {
				w, ok := built.TokenWeight(tok)
				if !ok {
					t.Fatalf("token %q of the corpus has no weight", tok)
				}
				wantWeights[tok] = w
			}
		}
		pointReads := func(ix *seal.Index) error {
			for id := range objects {
				o, err := ix.Object(id)
				if err != nil {
					return err
				}
				simR, simT, err := ix.Similarity(req, id)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(o, wantObjects[id]) || [2]float64{simR, simT} != wantSims[id] {
					return fmt.Errorf("object %d read back wrong from a closing index", id)
				}
			}
			return nil
		}
		cancelable, cancel := context.WithCancel(ctx)
		defer cancel()
		ops := []func(*seal.Index) error{
			pointReads,
			func(ix *seal.Index) error {
				switch fp := ix.Fingerprint(); fp {
				case wantFingerprint:
					return nil
				case "": // a closed index has no fingerprint
					return seal.ErrClosed
				default:
					return fmt.Errorf("fingerprint %q, want %q", fp, wantFingerprint)
				}
			},
			func(ix *seal.Index) error { // the vocabulary is mapped too
				for tok, want := range wantWeights {
					switch w, ok := ix.TokenWeight(tok); {
					case !ok: // a closed index knows no tokens
						return seal.ErrClosed
					case w != want:
						return fmt.Errorf("token %q weighs %v on a closing index, want %v", tok, w, want)
					}
				}
				return nil
			},
			query("query", full.Matches, req),
			query("limited", full.Matches[:3], req, seal.OrderByID(), seal.Limit(3)),
			query("partial", full.Matches, req, seal.AllowPartial()),
			query("ranked", top.Matches, ranked),
			func(ix *seal.Index) error { // a cancellable ctx: the single shard searches inline, polling it
				res, err := ix.Query(cancelable, req)
				if err != nil {
					return err
				}
				return same("cancelable", res.Matches, full.Matches)
			},
			func(ix *seal.Index) error {
				var closed error
				for _, br := range ix.QueryBatch(ctx, []seal.Request{req, req, req}) {
					if br.Err != nil {
						if !errors.Is(br.Err, seal.ErrClosed) {
							return br.Err
						}
						closed = br.Err
						continue
					}
					if err := same("batch", br.Results.Matches, full.Matches); err != nil {
						return err
					}
				}
				return closed
			},
			func(ix *seal.Index) error {
				var got []seal.Match
				for m, err := range ix.Stream(ctx, req) {
					if err != nil {
						return err
					}
					got = append(got, m)
				}
				slices.SortFunc(got, func(a, b seal.Match) int { return a.ID - b.ID })
				return same("stream", got, full.Matches)
			},
		}

		// Every shard search naps in its start hook, so Close always finds
		// searches that were admitted but have yet to touch their segment.
		inj := &faultfs.Injector{}
		for i := 0; i < shards; i++ {
			inj.DelayShard(i, 2*time.Millisecond)
		}
		faultfs.Install(inj)
		t.Cleanup(faultfs.Uninstall)

		for round := 0; round < 5; round++ {
			ix, err := seal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var running, done sync.WaitGroup
			for _, op := range ops {
				running.Add(1)
				done.Add(1)
				go func() {
					defer done.Done()
					for first := true; ; first = false {
						err := op(ix)
						if first {
							running.Done()
						}
						if err != nil {
							if !errors.Is(err, seal.ErrClosed) {
								t.Errorf("shards=%d round %d: %v", shards, round, err)
							}
							return
						}
					}
				}()
			}
			running.Wait() // every kind of call has been through once and is in flight again
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			done.Wait() // each worker ends on the ErrClosed its next call gets
		}
		faultfs.Uninstall()
	}
}
