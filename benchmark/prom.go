package main

// A reader for the slice of the Prometheus text format the daemon emits:
// enough to diff histogram _sum/_count pairs and plain counters around a
// phase. The daemon's own clocks (request histogram, stage histograms) are
// two of the three clocks the benchmark reconciles with its wall time.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape maps a sample's full left-hand side — `name` or `name{labels}`,
// exactly as exposed — to its value.
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values here never hold one.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prom: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// hist returns a histogram's _sum and _count for one label set, e.g.
// hist("seal_request_duration_seconds", `endpoint="query"`).
func (s scrape) hist(name, labels string) (sum, count float64) {
	return s[name+"_sum{"+labels+"}"], s[name+"_count{"+labels+"}"]
}

// histDelta sums, over the given label sets, how much a histogram's _sum and
// _count grew between two scrapes.
func histDelta(before, after scrape, name, labelKey string, labelValues []string) (sum, count float64) {
	for _, v := range labelValues {
		labels := fmt.Sprintf("%s=%q", labelKey, v)
		s0, c0 := before.hist(name, labels)
		s1, c1 := after.hist(name, labels)
		sum += s1 - s0
		count += c1 - c0
	}
	return sum, count
}

var (
	servingEndpoints = []string{"query", "batch", "stream"}
	traceStages      = []string{"admit", "plan", "filter", "verify", "merge"}
)

// clocks reconciles the client's wall clock with the daemon's two clocks over
// one phase. clientMeanUS is the client-side mean latency of the same phase.
func clocks(before, after scrape, clientMeanUS float64) map[string]float64 {
	reqSum, reqCount := histDelta(before, after, "seal_request_duration_seconds", "endpoint", servingEndpoints)
	stageSum, _ := histDelta(before, after, "seal_stage_seconds", "stage", traceStages)
	m := map[string]float64{
		"clock.server_reported_us":     0,
		"clock.client_minus_server_us": 0,
		"clock.stage_hist_sum_us":      0,
	}
	if reqCount > 0 {
		server := reqSum / reqCount * 1e6
		m["clock.server_reported_us"] = server
		m["clock.client_minus_server_us"] = clientMeanUS - server
		m["clock.stage_hist_sum_us"] = stageSum / reqCount * 1e6
	}
	return m
}
