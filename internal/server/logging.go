package server

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// LogEntry is one finished request, written as a single JSON line. Fields
// with zero values are omitted so threshold queries don't log ranked knobs
// and vice versa.
type LogEntry struct {
	Time      string  `json:"time"`
	Endpoint  string  `json:"endpoint"`
	Method    string  `json:"method,omitempty"`
	Status    int     `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
	Queries   int     `json:"queries,omitempty"` // batch size; 1 for single
	Matches   int     `json:"matches"`
	// Stats is the query's cost breakdown in /v1/query's schema (a batch's
	// summed over its entries); absent on a request that ran no query.
	Stats  *wireStats `json:"stats,omitempty"`
	Error  string     `json:"error,omitempty"`
	Remote string     `json:"remote,omitempty"`
	// Slow flags requests at or over the configured slow-query threshold.
	Slow bool `json:"slow,omitempty"`
}

// QueryLog serializes JSON-line request logging. A nil *QueryLog discards
// entries, so handlers log unconditionally.
type QueryLog struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewQueryLog logs one JSON line per request to w; nil w disables logging.
func NewQueryLog(w io.Writer) *QueryLog {
	if w == nil {
		return nil
	}
	return &QueryLog{enc: json.NewEncoder(w)}
}

// Log writes one entry, stamping the time.
func (l *QueryLog) Log(e LogEntry) {
	if l == nil {
		return
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	l.mu.Lock()
	defer l.mu.Unlock()
	// An unloggable entry (closed pipe) must not take the daemon down;
	// Encode's error is deliberately dropped.
	_ = l.enc.Encode(e)
}
