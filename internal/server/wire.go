package server

// The response encoder of the query endpoints (/v1/query, /v1/explain,
// /v1/query/batch, /v1/stream). Matches go from the library's []seal.Match
// straight to bytes: strconv appends into one pooled chunk, and the chunk
// goes to the ResponseWriter each time it passes chunkBytes, so no buffer
// grows to the size of the answer. The bytes are exactly what encoding/json
// writes for the same values — field order, omitted fields and float format
// — which the reference structs in wire_test.go pin.

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	seal "github.com/sealdb/seal"
)

// chunkBytes is the write threshold: a body is written in pieces of about
// this size. Every piece costs a write syscall, which a few-KiB chunk pays
// many times over on a fat answer; tens of KiB of matches go out in one or
// two pieces of 32 KiB.
const chunkBytes = 32 << 10

// chunkCap leaves room past the threshold for the entry that crosses it, so
// a chunk never grows on matches. A chunk grown past it by a long error or
// a trace is dropped rather than pooled.
const chunkCap = chunkBytes + 1<<10

var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, 0, chunkCap)
	return &b
}}

// wire is one response body under construction.
type wire struct {
	w     io.Writer
	chunk *[]byte // the pooled buffer b was taken from
	b     []byte
}

// newWire takes a chunk from the pool for a body written to w; finish
// returns it.
func newWire(w io.Writer) wire {
	chunk := chunkPool.Get().(*[]byte)
	return wire{w: w, chunk: chunk, b: (*chunk)[:0]}
}

// write hands the buffered bytes to w and empties the chunk.
func (ww *wire) write() error {
	if len(ww.b) == 0 {
		return nil
	}
	_, err := ww.w.Write(ww.b)
	ww.b = ww.b[:0]
	return err
}

// spill writes the chunk out once it has passed chunkBytes. A failed write
// (here and in finish) means the client went away: the body is finished
// into the void and the handler's accounting stays unchanged.
func (ww *wire) spill() {
	if len(ww.b) >= chunkBytes {
		_ = ww.write()
	}
}

// finish writes what is buffered and returns the chunk to the pool.
func (ww *wire) finish() {
	_ = ww.write()
	if cap(ww.b) <= chunkCap {
		*ww.chunk = ww.b
		chunkPool.Put(ww.chunk)
	}
	ww.chunk, ww.b = nil, nil
}

// results appends one query's answer object: matches (only when matches is
// set; /v1/explain leaves them out), count, degraded, stats, trace (already
// encoded; nil omits it), took_ms — wireResults and wireExplain in
// wire_test.go are its encoding/json references. It spills after every
// match.
func (ww *wire) results(res *seal.Results, matches bool, trace []byte, tookMS float64) {
	ww.b = append(ww.b, '{')
	if matches {
		ww.b = append(ww.b, `"matches":[`...)
		for i, m := range res.Matches {
			if i > 0 {
				ww.b = append(ww.b, ',')
			}
			ww.b = appendMatch(ww.b, m)
			ww.spill()
		}
		ww.b = append(ww.b, "],"...)
	}
	ww.b = appendInt(ww.b, `"count":`, len(res.Matches))
	if res.Degraded {
		ww.b = append(ww.b, `,"degraded":true`...)
	}
	if res.Stats != nil {
		ww.b = append(ww.b, `,"stats":`...)
		ww.b = appendStats(ww.b, res.Stats)
	}
	if trace != nil {
		ww.b = append(ww.b, `,"trace":`...)
		ww.b = append(ww.b, trace...)
	}
	ww.b = appendFloat(append(ww.b, `,"took_ms":`...), tookMS)
	ww.b = append(ww.b, '}')
}

// appendMatch appends one match object; score is omitted when zero, as for
// every threshold answer.
func appendMatch(b []byte, m seal.Match) []byte {
	b = appendInt(b, `{"id":`, m.ID)
	b = appendFloat(append(b, `,"sim_r":`...), m.SimR)
	b = appendFloat(append(b, `,"sim_t":`...), m.SimT)
	if m.Score != 0 {
		b = appendFloat(append(b, `,"score":`...), m.Score)
	}
	return append(b, '}')
}

// appendErrorRecord appends the NDJSON record {"error":...} that ends a
// stream failing after its first match.
func appendErrorRecord(b []byte, err error) []byte {
	b = appendString(append(b, `{"error":`...), err.Error())
	return append(b, "}\n"...)
}

// appendDegradedRecord appends the NDJSON record that ends a stream which
// dropped shardErrors shards.
func appendDegradedRecord(b []byte, shardErrors int) []byte {
	b = appendInt(b, `{"degraded":true,"shard_errors":`, shardErrors)
	return append(b, "}\n"...)
}

// appendStats appends wireStats' encoding of st.
func appendStats(b []byte, st *seal.Stats) []byte {
	ws := statsWire(st)
	b = appendInt(b, `{"candidates":`, ws.Candidates)
	b = appendInt(b, `,"results":`, ws.Results)
	b = appendInt(b, `,"lists_probed":`, ws.ListsProbed)
	b = appendInt(b, `,"postings_scanned":`, ws.PostingsScanned)
	b = appendFloat(append(b, `,"filter_ms":`...), ws.FilterMS)
	b = appendFloat(append(b, `,"verify_ms":`...), ws.VerifyMS)
	b = appendInt(b, `,"shard_fanout":`, ws.ShardFanout)
	if ws.ShardsPruned != 0 {
		b = appendInt(b, `,"shards_pruned":`, ws.ShardsPruned)
	}
	if ws.ShardErrors != 0 {
		b = appendInt(b, `,"shard_errors":`, ws.ShardErrors)
	}
	return append(b, '}')
}

// appendInt appends a key (with its delimiters) and an integer value.
func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// representation, in 'f' form unless |f| is below 1e-6 or at least 1e21,
// where it takes 'e' form with a one-digit negative exponent unpadded
// (1e-07 → 1e-7). f must be finite; similarities and timings always are.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Only error messages travel as
// strings, so the rare path keeps encoding/json's escaping rules by using it.
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}
