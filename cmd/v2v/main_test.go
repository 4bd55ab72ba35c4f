package main

import (
	"flag"
	"io"
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

// parseTrain parses args on a fresh FlagSet carrying the training
// flags and returns the flag error, or else the assembled options and
// their error.
func parseTrain(args ...string) (v2v.Options, error) {
	fs := flag.NewFlagSet("v2v", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := trainOptions(fs)
	if err := fs.Parse(args); err != nil {
		return v2v.Options{}, err
	}
	return build()
}

// TestTrainFlags holds the training flags to what remains: the four
// walk strategies parse, node2vec fails naming uniform, and the
// SkipGram, hierarchical-softmax and node2vec knobs are no longer
// flags.
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
}
