// Command sealgen generates the synthetic Twitter-like or USA-like dataset
// of internal/gen (the package documents both distributions) and writes it
// as a dataset file that sealquery and sealserver load with -data, so
// expensive generation happens once. The file is the dataset.seg of a segment
// directory: a checksummed section container, mapped and validated in full
// when it is read.
//
// Examples:
//
//	sealgen -kind twitter -n 100000 -o twitter.seg
//	sealgen -kind usa -n 50000 -seed 7 -o usa.seg
//	sealgen -kind twitter -n 1000000 -zipf 1.05 -vocab 200000 -o big.seg
//
// -zipf, -vocab and -mean-tokens scale the token workload independently of
// the object count: a lower Zipf exponent flattens token frequencies (longer
// tail, more distinct posting lists), a larger vocabulary spreads the same
// postings over more lists, and -mean-tokens grows every object's token set.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

func main() {
	var (
		kind       = flag.String("kind", "twitter", "dataset kind: twitter or usa")
		n          = flag.Int("n", 100000, "number of objects")
		seed       = flag.Int64("seed", 42, "random seed")
		zipf       = flag.Float64("zipf", 0, "token-frequency Zipf exponent > 1 (default 1.10)")
		vocab      = flag.Int("vocab", 0, "vocabulary size (default 50000 twitter, 30000 usa)")
		meanTokens = flag.Float64("mean-tokens", 0, "mean tokens per object (default 14.3 twitter, 12.5 usa)")
		out        = flag.String("o", "", "output dataset file path (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "sealgen: -o output path is required")
		os.Exit(2)
	}
	if *zipf != 0 && *zipf <= 1 {
		fmt.Fprintln(os.Stderr, "sealgen: -zipf must be greater than 1")
		os.Exit(2)
	}

	var (
		ds  *model.Dataset
		err error
	)
	switch *kind {
	case "twitter":
		ds, err = gen.Twitter(gen.TwitterConfig{
			N: *n, Seed: *seed, ZipfS: *zipf, VocabSize: *vocab, MeanTokens: *meanTokens,
		})
	case "usa":
		ds, err = gen.USA(gen.USAConfig{
			N: *n, Seed: *seed, ZipfS: *zipf, VocabSize: *vocab, MeanTokens: *meanTokens,
		})
	default:
		fmt.Fprintf(os.Stderr, "sealgen: unknown kind %q (twitter or usa)\n", *kind)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealgen: %v\n", err)
		os.Exit(1)
	}

	// Rows in ID order, as one shard.
	if err := diskidx.WriteDataset(*out, ds, []uint32{0, uint32(ds.Len())}); err != nil {
		fmt.Fprintf(os.Stderr, "sealgen: %v\n", err)
		os.Exit(1)
	}
	info, _ := os.Stat(*out)
	fmt.Printf("wrote %s: %d objects, %d tokens in vocabulary, %.1f MB\n",
		*out, ds.Len(), ds.Vocab().Len(), float64(info.Size())/(1<<20))
}
