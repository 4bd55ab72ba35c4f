package main

import (
	"errors"
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"v2v"
)

// parseIndex parses args on a fresh FlagSet carrying the index flags
// and returns the flag error, or else the assembled config and its
// error.
func parseIndex(args ...string) (v2v.IndexConfig, error) {
	fs := flag.NewFlagSet("v2v", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := indexSelection(fs, "exact")
	if err := fs.Parse(args); err != nil {
		return v2v.IndexConfig{}, err
	}
	return build()
}

// TestIndexSelection holds the -index choices to the two kinds that
// remain: exact and hnsw parse, ivf fails naming exact, and the ivf
// knobs are no longer flags.
func TestIndexSelection(t *testing.T) {
	for arg, want := range map[string]v2v.IndexKind{"exact": v2v.ExactIndex, "hnsw": v2v.HNSWIndex} {
		cfg, err := parseIndex("-index", arg)
		if err != nil || cfg.Kind != want {
			t.Errorf("-index %s: kind %v, err %v; want %v", arg, cfg.Kind, err, want)
		}
	}
	if _, err := parseIndex("-index", "ivf"); err == nil || !strings.Contains(err.Error(), "exact") {
		t.Errorf("-index ivf: err %v, want one naming exact", err)
	}
	if _, err := parseIndex("-nprobe", "4"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-nprobe 4: err %v, want an undefined-flag error", err)
	}
}

// TestSharedSeed: on a flag set that trains and builds an index, as
// predict's does, the one -seed seeds both.
func TestSharedSeed(t *testing.T) {
	fs := flag.NewFlagSet("v2v", flag.ContinueOnError)
	options := trainOptions(fs, 50)
	index := indexSelection(fs, "hnsw")
	if err := fs.Parse([]string{"-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	opts, err := options()
	cfg, err2 := index()
	if err != nil || err2 != nil || opts.Seed != 7 || cfg.Seed != 7 {
		t.Fatalf("training seed %d (%v), index seed %d (%v); want 7 and 7", opts.Seed, err, cfg.Seed, err2)
	}
}

// parseTrain parses args on a fresh FlagSet carrying the training
// flags and returns the flag error, or else the assembled options and
// their error.
func parseTrain(args ...string) (v2v.Options, error) {
	fs := flag.NewFlagSet("v2v", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := trainOptions(fs, 50)
	if err := fs.Parse(args); err != nil {
		return v2v.Options{}, err
	}
	return build()
}

// TestTrainFlags holds the training flags to what remains: the four
// walk strategies parse, node2vec fails naming uniform, and the
// SkipGram, hierarchical-softmax and node2vec knobs are no longer
// flags. Each application subcommand's flag set parses every flag it
// defines (the run then stops on a missing required flag) and rejects
// those knobs and the ivf one.
func TestTrainFlags(t *testing.T) {
	for arg, want := range map[string]v2v.WalkStrategy{
		"uniform":         v2v.UniformWalk,
		"edge-weighted":   v2v.EdgeWeightedWalk,
		"vertex-weighted": v2v.VertexWeightedWalk,
		"temporal":        v2v.TemporalWalk,
	} {
		opts, err := parseTrain("-strategy", arg)
		if err != nil || opts.Strategy != want {
			t.Errorf("-strategy %s: strategy %v, err %v; want %v", arg, opts.Strategy, err, want)
		}
	}
	if _, err := parseTrain("-strategy", "node2vec"); err == nil || !strings.Contains(err.Error(), "uniform") {
		t.Errorf("-strategy node2vec: err %v, want one naming uniform", err)
	}
	for _, args := range [][]string{
		{"-objective", "skipgram"},
		{"-sampler", "hs"},
		{"-p", "0.5"},
		{"-q", "2"},
	} {
		if _, err := parseTrain(args...); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err %v, want an undefined-flag error", strings.Join(args, " "), err)
		}
	}

	train := []string{"-dim", "8", "-walks", "2", "-length", "5", "-window", "2", "-epochs", "1",
		"-strategy", "uniform", "-temporal-window", "0", "-seed", "3"}
	for name, tc := range map[string]struct {
		args    []string
		missing string
	}{
		"communities": {append([]string{"-truth", "t", "-k", "4", "-methods", "cnm"}, train...), "-in is required"},
		"predict": {append([]string{"-labels", "l", "-k", "3", "-folds", "2", "-predict-missing", "-directed",
			"-model-out", "m", "-index", "hnsw", "-m", "8", "-efc", "20", "-efs", "10", "-shards", "2"}, train...),
			"-in and -labels are required"},
		"visualize": {[]string{"-graph", "g", "-labels", "l", "-iters", "5", "-title", "t", "-seed", "2"}, "need -out"},
	} {
		if _, err := runApp(name, tc.args...); !errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.missing) {
			t.Errorf("%s: err %v, want a usage error naming %q", name, err, tc.missing)
		}
		for _, removed := range [][]string{{"-objective", "skipgram"}, {"-sampler", "hs"}, {"-p", "0.5"}, {"-nprobe", "4"}} {
			_, err := runApp(name, slices.Concat(tc.args, removed)...)
			if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("%s %s: err %v, want an undefined-flag error", name, strings.Join(removed, " "), err)
			}
		}
	}
	if _, err := runApp("visualize", "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err %v, want flag.ErrHelp", err)
	}
}
