package v2v

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
)

// trainedTestModel embeds a small benchmark graph once per test run.
func trainedTestModel(t *testing.T) (*Embedding, *Graph) {
	t.Helper()
	cfg := DefaultBenchmarkConfig(0.5, 9)
	cfg.NumCommunities = 4
	cfg.CommunitySize = 25
	cfg.InterEdges = 30
	g, _ := CommunityBenchmark(cfg)
	opts := DefaultOptions(12)
	opts.Seed = 5
	emb, err := Embed(g, opts)
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	return emb, g
}

// TestSnapshotFacadeRoundTrip drives SaveSnapshot/LoadSnapshot and
// the auto-detecting LoadModel through the public API on a genuinely
// trained embedding.
func TestSnapshotFacadeRoundTrip(t *testing.T) {
	emb, g := trainedTestModel(t)
	tokens := make([]string, g.NumVertices())
	for v := range tokens {
		tokens[v] = g.Name(v)
	}

	var bin bytes.Buffer
	if err := SaveSnapshot(&bin, emb.Model, tokens); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	binData := bin.Bytes()

	var text bytes.Buffer
	if err := emb.Model.Save(&text, g.Name); err != nil {
		t.Fatalf("Model.Save: %v", err)
	}

	fromBin, binToks, err := LoadModel(bytes.NewReader(binData))
	if err != nil {
		t.Fatalf("LoadModel(snapshot): %v", err)
	}
	fromText, textToks, err := LoadModel(&text)
	if err != nil {
		t.Fatalf("LoadModel(text): %v", err)
	}
	if !reflect.DeepEqual(binToks, tokens) || !reflect.DeepEqual(textToks, tokens) {
		t.Fatal("token tables differ across formats")
	}
	// The snapshot path must be bit-identical to the in-memory model,
	// and answer identical neighbor queries.
	for i := range emb.Model.Vectors {
		if fromBin.Vectors[i] != emb.Model.Vectors[i] {
			t.Fatalf("snapshot vector bits differ at %d", i)
		}
		if fromText.Vectors[i] != emb.Model.Vectors[i] {
			t.Fatalf("text vector differs at %d", i)
		}
	}
	want := emb.Model.Neighbors(3, 8)
	if got := fromBin.Neighbors(3, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot Neighbors differ:\n  got %v\n want %v", got, want)
	}

	// Dedicated loader rejects the text format.
	if _, _, err := LoadSnapshot(bytes.NewReader(text.Bytes())); err == nil {
		t.Fatal("LoadSnapshot accepted text input")
	}
}

// TestQueryServerFacade serves a trained embedding through the facade
// and checks one query per endpoint family.
func TestQueryServerFacade(t *testing.T) {
	emb, g := trainedTestModel(t)
	tokens := make([]string, g.NumVertices())
	for v := range tokens {
		tokens[v] = g.Name(v)
	}
	s, err := NewQueryServerFromModel(ServeConfig{}, emb.Model, tokens)
	if err != nil {
		t.Fatalf("NewQueryServerFromModel: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for _, path := range []string{
		"/healthz",
		"/stats",
		"/v1/neighbors?vertex=0&k=5",
		"/v1/similarity?a=0&b=1",
		"/v1/vocab?limit=5",
	} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d (%v)", path, resp.StatusCode, body)
		}
	}

	// The served neighbor list must equal the embedding's own answer.
	resp, err := hs.Client().Get(hs.URL + "/v1/neighbors?vertex=7&k=5")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Neighbors []struct {
			Vertex string  `json:"vertex"`
			Score  float64 `json:"score"`
		} `json:"neighbors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := emb.Model.Neighbors(7, 5)
	if len(out.Neighbors) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(out.Neighbors), len(want))
	}
	for i, n := range out.Neighbors {
		if n.Vertex != fmt.Sprint(want[i].Word) || n.Score != want[i].Similarity {
			t.Fatalf("neighbor %d: got %+v, want %+v", i, n, want[i])
		}
	}
}
