// Command sealbench regenerates the tables and figures of the SEAL paper's
// evaluation (Section 6) against synthetic Twitter-like and USA-like
// workloads (internal/gen), including the §2.3 baseline comparison of
// Figures 16–17. Without flags it runs every experiment at the default scale;
// use -exp to select some and -objects/-queries to rescale. The serving
// engine is measured separately, by bash benchmark/run.sh.
//
// Examples:
//
//	sealbench                        # everything, default scale
//	sealbench -exp fig16             # one experiment
//	sealbench -exp table1 -objects 100000
//	sealbench -smoke -exp table1,candidates,topk
//	sealbench -list                  # show available experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/sealdb/seal/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "sealbench: %v\n", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks bad flag input (exit 2, matching flag package convention).
type usageError struct{ error }

func run() error {
	var (
		expName = flag.String("exp", "all", "comma-separated experiments to run (see -list), or 'all'")
		objects = flag.Int("objects", bench.DefaultConfig.TwitterN, "objects per dataset")
		queries = flag.Int("queries", bench.DefaultConfig.Queries, "queries per workload")
		seed    = flag.Int64("seed", bench.DefaultConfig.Seed, "master random seed")
		budget  = flag.Int("budget", bench.DefaultConfig.HierBudget, "per-token grid budget m_t for Seal")
		level   = flag.Int("level", bench.DefaultConfig.HierMaxLevel, "grid-tree depth for Seal")
		smoke   = flag.Bool("smoke", false, "use the tiny smoke-test configuration")
		list    = flag.Bool("list", false, "list experiments and exit")
		quiet   = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("  %-10s %s\n", e.Name, e.Desc)
		}
		return nil
	}

	cfg := bench.DefaultConfig
	if *smoke {
		cfg = bench.SmokeConfig
	}
	// Explicitly-set flags override whichever base config is active (a
	// sentinel compare against the default value would silently ignore
	// `-smoke -objects 60000`).
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "objects":
			cfg.TwitterN = *objects
			cfg.USAN = *objects
		case "queries":
			cfg.Queries = *queries
		case "seed":
			cfg.Seed = *seed
		case "budget":
			cfg.HierBudget = *budget
		case "level":
			cfg.HierMaxLevel = *level
		}
	})

	env := bench.NewEnv(cfg)
	if !*quiet {
		env.Log = os.Stderr
	}
	fmt.Printf("# sealbench: objects=%d queries=%d seed=%d budget=%d level=%d\n",
		cfg.TwitterN, cfg.Queries, cfg.Seed, cfg.HierBudget, cfg.HierMaxLevel)

	names := strings.Split(*expName, ",")
	if *expName == "all" {
		names = names[:0]
		for _, e := range bench.Experiments {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		exp, ok := bench.Lookup(strings.TrimSpace(name))
		if !ok {
			return usageError{fmt.Errorf("unknown experiment %q (try -list)", name)}
		}
		if err := exp.Run(os.Stdout, env); err != nil {
			return fmt.Errorf("%s: %w", exp.Name, err)
		}
	}
	return nil
}
