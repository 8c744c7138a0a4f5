package main

import (
	"math"
	"strings"
	"testing"
)

// Two excerpts of a real sealserver /metrics body, captured before and after
// a phase of 1000 query requests and 10 batch requests.
const scrapeBefore = `# HELP seal_requests_total HTTP requests finished, by endpoint and status code.
# TYPE seal_requests_total counter
seal_requests_total{endpoint="query",code="200"} 32
seal_requests_rejected_total 0
# TYPE seal_request_duration_seconds histogram
seal_request_duration_seconds_bucket{endpoint="query",le="0.0001"} 20
seal_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 32
seal_request_duration_seconds_sum{endpoint="query"} 0.004
seal_request_duration_seconds_count{endpoint="query"} 32
seal_request_duration_seconds_sum{endpoint="batch"} 0
seal_request_duration_seconds_count{endpoint="batch"} 0
seal_request_duration_seconds_sum{endpoint="warmup"} 0.5
seal_request_duration_seconds_count{endpoint="warmup"} 64
seal_stage_seconds_sum{stage="admit"} 0.0001
seal_stage_seconds_count{stage="admit"} 32
seal_stage_seconds_sum{stage="filter"} 0.002
seal_stage_seconds_count{stage="filter"} 32
seal_gc_pause_seconds_total 1.5e-05
`

const scrapeAfter = `seal_requests_total{endpoint="query",code="200"} 1032
seal_requests_rejected_total 3
seal_request_duration_seconds_sum{endpoint="query"} 0.104
seal_request_duration_seconds_count{endpoint="query"} 1032
seal_request_duration_seconds_sum{endpoint="batch"} 0.0101
seal_request_duration_seconds_count{endpoint="batch"} 10
seal_request_duration_seconds_sum{endpoint="warmup"} 0.5
seal_request_duration_seconds_count{endpoint="warmup"} 64
seal_stage_seconds_sum{stage="admit"} 0.0051
seal_stage_seconds_count{stage="admit"} 1032
seal_stage_seconds_sum{stage="filter"} 0.0525
seal_stage_seconds_count{stage="filter"} 1032
seal_gc_pause_seconds_total 2.5e-05
`

func TestParseScrapeAndClocks(t *testing.T) {
	before, err := parseScrape(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`seal_request_duration_seconds_bucket{endpoint="query",le="+Inf"}`]; got != 32 {
		t.Errorf("+Inf bucket = %v, want 32", got)
	}
	if got := after["seal_gc_pause_seconds_total"]; got != 2.5e-05 {
		t.Errorf("exponent value = %v, want 2.5e-05", got)
	}
	if got := after["seal_requests_rejected_total"] - before["seal_requests_rejected_total"]; got != 3 {
		t.Errorf("rejected delta = %v, want 3", got)
	}

	sum, count := histDelta(before, after, "seal_request_duration_seconds", "endpoint", servingEndpoints)
	if count != 1010 || math.Abs(sum-0.1101) > 1e-12 {
		t.Errorf("request delta = (%v, %v), want (0.1101, 1010): warmup must not count", sum, count)
	}

	m := clocks(before, after, 150)
	want := map[string]float64{
		"clock.server_reported_us":     0.1101 / 1010 * 1e6,
		"clock.client_minus_server_us": 150 - 0.1101/1010*1e6,
		"clock.stage_hist_sum_us":      (0.005 + 0.0505) / 1010 * 1e6,
	}
	for k, w := range want {
		if math.Abs(m[k]-w) > 1e-6 {
			t.Errorf("%s = %v, want %v", k, m[k], w)
		}
	}

	// No traffic between two scrapes: zeros, not a division by zero.
	for k, v := range clocks(after, after, 150) {
		if v != 0 {
			t.Errorf("idle phase: %s = %v, want 0", k, v)
		}
	}
	if _, err := parseScrape(strings.NewReader("seal_x notanumber\n")); err == nil {
		t.Error("malformed sample accepted")
	}
}
