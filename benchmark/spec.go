package main

// BENCHMARK.json is the single catalogue of workload and metric names, units
// and bounds. The program reads it instead of repeating it, so a name printed
// here and a name gated by the driver cannot drift apart: a metric the file
// lists and the run did not compute is an error, not a silent omission.

import (
	"encoding/json"
	"fmt"
	"os"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line selects the listed metrics out of everything a run measured.
func (r *runResult) line(list []metricSpec) (resultLine, error) {
	out := resultLine{
		Correct:   r.correct,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok {
			return out, fmt.Errorf("metric %q is listed in BENCHMARK.json but was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}
