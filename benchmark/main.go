// Command benchmark is the repository's one performance harness: it builds
// the production index, boots a real sealserver from it, drives the daemon
// over loopback, checks answers against a brute-force oracle and prints every
// metric BENCHMARK.json names. See README.md for the catalogue.
//
// The driver's contract (one workload per invocation, last stdout line a JSON
// result):
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// Two conveniences run every workload in one process:
//
//	benchmark -smoke          tiny corpus, ~1 s phases, both metric sets
//	benchmark -check-repeat   two full sets; non-zero exit if an end-to-end
//	                          metric disagrees by more than its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "workload to run (required unless -smoke or -check-repeat)")
		seed         = flag.Int64("seed", 42, "seeds the request streams; the corpus is fixed")
		seconds      = flag.Float64("seconds", 0, "timed seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
		smoke        = flag.Bool("smoke", false, "tiny corpus, ~1 s per workload, all workloads and the ladder")
		checkRepeat  = flag.Bool("check-repeat", false, "run two full end-to-end sets and compare them against the bounds")
		repo         = flag.String("repo", ".", "root of the checkout: holds BENCHMARK.json and cmd/sealserver")
		spansPath    = flag.String("spans", "", "where a traced run writes its spans (default REPO/.bench_build/spans-WORKLOAD.jsonl)")
	)
	flag.Parse()

	sp, err := loadSpec(filepath.Join(*repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}

	// The load generator gets the box's two CPUs and no more, on any machine.
	runtime.GOMAXPROCS(2)

	// The daemon binary, scratch files and spans stay inside the checkout, in
	// the directory .gitignore names.
	out := filepath.Join(*repo, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	serverBin, err := buildServer(*repo, out)
	if err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	cfg := &config{
		serverBin: serverBin, workDir: workDir,
		objects: fullObjects, seed: *seed, seconds: *seconds,
		trace: *trace == 1, setupReps: 3,
	}
	switch {
	case *smoke:
		return runSmoke(cfg, sp)
	case *checkRepeat:
		return runCheckRepeat(cfg, sp)
	}

	w, ok := findWorkload(*workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}
	header(cfg)
	list := sp.EndToEnd
	if cfg.trace {
		// The traced run reports layers, not setup: one setup is enough.
		cfg.setupReps, cfg.spans, list = 1, newSpanLog(), sp.PerLayer
		if *spansPath == "" {
			*spansPath = filepath.Join(out, "spans-"+w.name+".jsonl")
		}
	}
	res, err := runWorkload(cfg, w)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := cfg.spans.writeFile(*spansPath); err != nil {
			return err
		}
	}
	return emit(res, list)
}

// header records the fixed settings of the run.
func header(cfg *config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# commit=%s go=%s cpus=%d gomaxprocs=%d seed=%d objects=%d dataset_seed=%d clients=%d seconds=%g\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.objects, datasetSeed, numClients, cfg.seconds)
}

// emit prints the result line; notes about failures go to stderr.
func emit(res *runResult, list []metricSpec) error {
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "benchmark:", n)
	}
	line, err := res.line(list)
	if err != nil {
		return err
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runSmoke exercises every workload and the ladder end to end in a few
// seconds: a drift check for names and plumbing, not a measurement.
func runSmoke(cfg *config, sp *spec) error {
	cfg.smoke()
	header(cfg)
	for _, w := range workloads {
		res, err := runWorkload(cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			fmt.Printf("# workload=%s\n", w.name)
			if err := emit(res, list); err != nil {
				return err
			}
		}
		if !res.correct {
			return fmt.Errorf("%s: answers were not correct", w.name)
		}
	}
	return nil
}

// runCheckRepeat measures every workload twice on this build and holds the
// two sets to the bounds BENCHMARK.json promises.
func runCheckRepeat(cfg *config, sp *spec) error {
	header(cfg)
	sets := make([]map[string]*runResult, 2)
	for i := range sets {
		sets[i] = make(map[string]*runResult)
		for _, w := range workloads {
			res, err := runWorkload(cfg, w)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", i+1, w.name, err)
			}
			fmt.Printf("# set=%d workload=%s\n", i+1, w.name)
			if err := emit(res, sp.EndToEnd); err != nil {
				return err
			}
			sets[i][w.name] = res
		}
	}
	bad := 0
	fmt.Printf("%-16s %-30s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		// Gated metrics first, then whatever else an untraced run measures.
		for _, ms := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
			va, ok := a.metrics[ms.Name]
			vb := b.metrics[ms.Name]
			if !ok || va+vb == 0 {
				continue
			}
			spread := math.Abs(va-vb) / ((va + vb) / 2)
			bound := "-"
			if ms.Bound > 0 {
				bound = fmt.Sprintf("%.2f%%", ms.Bound*100)
				if spread > ms.Bound {
					bound += "  OVER"
					bad++
				}
			}
			fmt.Printf("%-16s %-30s %14.4f %14.4f %7.2f%% %8s\n", w.name, ms.Name, va, vb, spread*100, bound)
		}
		for i, r := range []*runResult{a, b} {
			if r.failed > 0 || !r.correct {
				fmt.Printf("%-16s set %d: failed %d of %d, correct=%v\n", w.name, i+1, r.failed, r.attempted, r.correct)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metric(s) disagree by more than their bound, or failed", bad)
	}
	return nil
}
