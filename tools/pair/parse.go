package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// metrics is one run's readings by name, with the order names first
// appeared in the output.
type metrics struct {
	names  []string
	values map[string]float64
	counts map[string]int
}

func newMetrics() *metrics {
	return &metrics{values: make(map[string]float64), counts: make(map[string]int)}
}

// add records a reading; a name read more than once in one run (a benchmark
// run with -test.count above 1) keeps the mean.
func (m *metrics) add(name string, v float64) {
	n, seen := m.counts[name]
	if !seen {
		m.names = append(m.names, name)
	}
	m.values[name] = (m.values[name]*float64(n) + v) / float64(n+1)
	m.counts[name] = n + 1
}

// parseHarness reads the result line benchmark/run.sh prints last: its
// correctness flag, attempted and failed counts, then every metric's value
// in name order.
func parseHarness(out []byte) (*metrics, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := bytes.TrimSpace(lines[len(lines)-1])
	if len(last) == 0 || last[0] != '{' {
		return nil, errors.New("the harness printed no result line")
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	m := newMetrics()
	correct := 0.0
	if line.Correct {
		correct = 1
	}
	m.add("correct", correct)
	m.add("attempted", float64(line.Attempted))
	m.add("failed", float64(line.Failed))
	for _, name := range slices.Sorted(maps.Keys(line.Metrics)) {
		m.add(name, line.Metrics[name].Value)
	}
	return m, nil
}

// parseBench reads the Benchmark lines of a go test binary's output. A line
// is the name, the iteration count, then value-unit pairs; each pair is
// recorded as "name unit", with the name's Benchmark prefix and GOMAXPROCS
// suffix removed.
func parseBench(out []byte) (*metrics, error) {
	m := newMetrics()
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not a result line
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: %w", sc.Text(), err)
			}
			m.add(name+" "+f[i+1], v)
		}
	}
	if len(m.names) == 0 {
		return nil, errors.New("the binary printed no Benchmark lines")
	}
	return m, nil
}
