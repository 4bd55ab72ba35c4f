package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestGraphFixtureRepeatsBySeed(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64) []byte {
		path := filepath.Join(dir, name)
		if err := genGraph(seed, 10, 100, 0.1, 200).write(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, again, other := write("a", 7), write("again", 7), write("other", 8)
	if !bytes.Equal(a, again) {
		t.Error("the same seed gave two different edge lists")
	}
	if bytes.Equal(a, other) {
		t.Error("two seeds gave the same edge list")
	}
}

func TestGraphFixtureShape(t *testing.T) {
	g := genGraph(3, 10, 100, 0.1, 200)
	if want := 10*495 + 200; len(g.edges) < want || len(g.edges) > want+5 {
		t.Errorf("%d edges, want %d (plus at most a few that rescue isolated vertices)", len(g.edges), want)
	}
	degree := make([]int, len(g.truth))
	seen := map[[2]int]bool{}
	inter := 0
	for _, e := range g.edges {
		degree[e[0]]++
		degree[e[1]]++
		if g.truth[e[0]] != g.truth[e[1]] {
			inter++
		} else if seen[e] {
			t.Errorf("intra-community edge %v twice", e)
		}
		seen[e] = true
	}
	if inter != 200 {
		t.Errorf("%d inter-community edges, want 200", inter)
	}
	for v, d := range degree {
		if d == 0 {
			t.Errorf("vertex %d has no edge", v)
		}
	}
}

func TestUnrankCoversTheTriangle(t *testing.T) {
	seen := map[[2]int]bool{}
	for k := 0; k < 10; k++ { // 5 vertices: 10 pairs
		u, v := unrank(k)
		if u < 0 || u >= v || v >= 5 || seen[[2]int{u, v}] {
			t.Fatalf("unrank(%d) = (%d, %d)", k, u, v)
		}
		seen[[2]int{u, v}] = true
	}
}

func TestVectorFixtureRepeatsBySeed(t *testing.T) {
	eq := func(a, b []float32) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	a, again, other := genVectors(5, 300, 16, 20), genVectors(5, 300, 16, 20), genVectors(6, 300, 16, 20)
	if !eq(a.data, again.data) {
		t.Error("the same seed gave two different matrices")
	}
	if eq(a.data, other.data) {
		t.Error("two seeds gave the same matrix")
	}
	if a.tokens[0] != "v0" || a.tokens[299] != "v299" {
		t.Errorf("tokens %q .. %q", a.tokens[0], a.tokens[299])
	}

	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "1.snap"), filepath.Join(dir, "2.snap")
	if err := a.writeSnapshot(p1); err != nil {
		t.Fatal(err)
	}
	if err := again.writeSnapshot(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if len(b1) == 0 || !bytes.Equal(b1, b2) {
		t.Error("the same seed gave two different snapshot files")
	}
}

// With more tokens than the server caches, the cyclic sampler must not
// repeat a token inside one cache's worth of draws.
func TestCycleSourceNeverRepeatsWithinCache(t *testing.T) {
	v := newVocabulary(genVectors(1, 5000, 2, 4).tokens)
	src := newCycleSource(v, newRNG(9))
	var draws []string
	for i := 0; i < 3*len(v.tokens); i++ {
		draws = append(draws, src.next(0).token)
	}
	last := map[string]int{}
	for i, tok := range draws {
		if at, ok := last[tok]; ok && i-at < cacheCapacity {
			t.Fatalf("token %s drawn at %d and again at %d", tok, at, i)
		}
		last[tok] = i
	}
	if len(last) != len(v.tokens) {
		t.Errorf("%d distinct tokens drawn, want all %d", len(last), len(v.tokens))
	}
}

func TestHotSourceStaysInTheHotSet(t *testing.T) {
	v := newVocabulary(genVectors(1, 5000, 2, 4).tokens)
	src := newHotSource(v, newRNG(9), 64, 2)
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		seen[src.next(i%2).token] = true
	}
	if len(seen) != 64 {
		t.Errorf("%d distinct hot tokens, want 64", len(seen))
	}
}

func TestMixedSourceMixAndNamespaces(t *testing.T) {
	f := genVectors(1, 500, 8, 4)
	src := newMixedSource(newVocabulary(f.tokens), f, newRNG(9), 2)
	count := map[opKind]int{}
	live := map[string]bool{}
	for i := 0; i < 4000; i++ {
		w := i % 2
		o := src.next(w)
		count[o.kind]++
		switch o.kind {
		case opUpsert:
			if live[o.token] {
				t.Fatalf("token %s upserted twice", o.token)
			}
			live[o.token] = true
		case opDelete:
			if !live[o.token] {
				t.Fatalf("delete of %s, which is not outstanding", o.token)
			}
			delete(live, o.token)
		}
	}
	// 85/10/5, except that a delete with nothing outstanding is an upsert.
	if count[opRead] != 3400 || count[opUpsert]+count[opDelete] != 600 || count[opDelete] > 200 || count[opDelete] < 150 {
		t.Errorf("mix = %d reads, %d upserts, %d deletes", count[opRead], count[opUpsert], count[opDelete])
	}
}
