package main

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"v2v"
)

// appFixture writes a small planted-partition graph (4 communities of
// 20 vertices) to dir with its communities three ways: integer truth,
// string labels, and string labels with every fifth one "?".
type appFixture struct {
	dir, graph, truth, labels, missing string
	names                              []string // label of every vertex
}

func newAppFixture(t *testing.T) appFixture {
	t.Helper()
	g, truth := v2v.CommunityBenchmark(v2v.BenchmarkConfig{
		NumCommunities: 4, CommunitySize: 20, Alpha: 0.5, InterEdges: 12, Seed: 5,
	})
	dir := t.TempDir()
	f := appFixture{dir: dir}
	var edges, truthB, labelsB, missingB bytes.Buffer
	if err := v2v.WriteEdgeList(&edges, g); err != nil {
		t.Fatal(err)
	}
	colours := []string{"red", "green", "blue", "gold"}
	for v, c := range truth {
		f.names = append(f.names, colours[c])
		fmt.Fprintln(&truthB, c)
		fmt.Fprintln(&labelsB, colours[c])
		if v%5 == 0 {
			fmt.Fprintln(&missingB, "?")
		} else {
			fmt.Fprintln(&missingB, colours[c])
		}
	}
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	f.graph = write("g.txt", edges.Bytes())
	f.truth = write("truth.txt", truthB.Bytes())
	f.labels = write("labels.txt", labelsB.Bytes())
	f.missing = write("missing.txt", missingB.Bytes())
	return f
}

// runApp runs subcommand name in-process and returns its stdout.
func runApp(name string, args ...string) (string, error) {
	var out bytes.Buffer
	err := apps[name](args, &out, io.Discard)
	return out.String(), err
}

// TestCommunitiesApp: every method prints a row, and each beats chance
// (about 0.25 pairwise precision and recall for four equal
// communities) on a planted partition. A v2v run without -k and a
// truth file with a missing label are refused.
func TestCommunitiesApp(t *testing.T) {
	f := newAppFixture(t)
	out, err := runApp("communities", "-in", f.graph, "-k", "4", "-truth", f.truth)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 || lines[0] != "graph: 80 vertices, "+strings.Fields(lines[0])[3]+" edges" {
		t.Fatalf("output:\n%s", out)
	}
	for i, method := range []string{"v2v", "cnm", "gn"} {
		row := strings.Fields(lines[2+i])
		if len(row) != 6 || row[0] != method {
			t.Fatalf("row %d: %q, want method %s", i, lines[2+i], method)
		}
		for _, col := range row[3:5] {
			if v, err := strconv.ParseFloat(col, 64); err != nil || v < 0.5 {
				t.Errorf("%s: precision/recall %q, want at least 0.5", method, col)
			}
		}
	}
	// The string labels number the communities differently; pairwise
	// scores do not depend on the numbering.
	byName, err := runApp("communities", "-in", f.graph, "-k", "4", "-truth", f.labels, "-methods", "cnm")
	if err != nil || strings.Fields(strings.Split(byName, "\n")[2])[3] != strings.Fields(lines[3])[3] {
		t.Errorf("-truth by name: %v\n%s\nwant cnm's row of\n%s", err, byName, out)
	}

	if _, err := runApp("communities", "-in", f.graph); err == nil || !strings.Contains(err.Error(), "needs -k") {
		t.Errorf("v2v without -k: err %v", err)
	}
	if _, err := runApp("communities", "-in", f.graph, "-k", "4", "-truth", f.missing); err == nil || !strings.Contains(err.Error(), "'?'") {
		t.Errorf("'?' in -truth: err %v", err)
	}
}

// TestPredictApp: cross-validation beats chance (0.25), -predict-missing
// fills in every "?" and saves a loadable model, and a "?" without
// the flag, or a file of nothing but "?", is refused before training
// writes -model-out.
func TestPredictApp(t *testing.T) {
	f := newAppFixture(t)
	out, err := runApp("predict", "-in", f.graph, "-labels", f.labels)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^10-fold cross-validated 3-NN accuracy at dim 50: ([0-9.]+)$`).FindStringSubmatch(out)
	if m == nil || !strings.HasPrefix(out, "graph: 80 vertices, ") || !strings.Contains(out, ", 4 classes\n") {
		t.Fatalf("output:\n%s", out)
	}
	if acc, _ := strconv.ParseFloat(m[1], 64); acc < 0.5 {
		t.Errorf("accuracy %v, want at least 0.5", acc)
	}

	model := filepath.Join(f.dir, "m.snap")
	out, err = runApp("predict", "-in", f.graph, "-labels", f.missing, "-predict-missing", "-model-out", model)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != len(f.names) {
		t.Fatalf("%d labels printed for %d vertices", len(got), len(f.names))
	}
	right := 0
	for v, l := range got {
		if v%5 != 0 && l != f.names[v] {
			t.Fatalf("vertex %d: known label %q printed as %q", v, f.names[v], l)
		}
		if v%5 == 0 && l == f.names[v] {
			right++
		}
	}
	if right < len(got)/5/2 {
		t.Errorf("%d of %d missing labels right", right, len(got)/5)
	}
	mf, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if m, _, err := v2v.LoadModel(mf); err != nil || m.Vocab != len(f.names) || m.Dim != 50 {
		t.Fatalf("-model-out: %v", err)
	}

	unwritten := filepath.Join(f.dir, "never.snap")
	if _, err := runApp("predict", "-in", f.graph, "-labels", f.missing, "-model-out", unwritten); err == nil || !strings.Contains(err.Error(), "-predict-missing") {
		t.Errorf("'?' without -predict-missing: err %v", err)
	}
	if _, err := os.Stat(unwritten); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused run wrote -model-out: %v", err)
	}
	allMissing := filepath.Join(f.dir, "all-missing.txt")
	if err := os.WriteFile(allMissing, []byte(strings.Repeat("?\n", len(f.names))), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runApp("predict", "-in", f.graph, "-labels", allMissing, "-predict-missing", "-model-out", unwritten); err == nil || !strings.Contains(err.Error(), "every label is missing") {
		t.Errorf("every label '?': err %v", err)
	}
	if _, err := os.Stat(unwritten); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused run wrote -model-out: %v", err)
	}
}

// svgCircles checks that path holds well-formed XML with an <svg> root
// and returns its <circle> count.
func svgCircles(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := xml.NewDecoder(bytes.NewReader(b))
	circles, root := 0, ""
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			if root == "" {
				root = se.Name.Local
			}
			if se.Name.Local == "circle" {
				circles++
			}
		}
	}
	if root != "svg" {
		t.Fatalf("%s: root element %q", path, root)
	}
	return circles
}

// TestVisualizeApp: both modes write well-formed SVG with a point per
// vertex, a "?" label draws grey, and a labels file shorter than the
// graph fails before -out is created.
func TestVisualizeApp(t *testing.T) {
	f := newAppFixture(t)
	drawing := filepath.Join(f.dir, "g.svg")
	if _, err := runApp("visualize", "-graph", f.graph, "-labels", f.missing, "-out", drawing, "-iters", "20", "-title", "a <b>"); err != nil {
		t.Fatal(err)
	}
	if n := svgCircles(t, drawing); n != len(f.names) {
		t.Errorf("graph drawing: %d circles for %d vertices", n, len(f.names))
	}
	if b, _ := os.ReadFile(drawing); !bytes.Contains(b, []byte(`fill="#999999"`)) {
		t.Errorf("graph drawing: no grey point for the '?' labels")
	}

	model := filepath.Join(f.dir, "m.snap")
	if _, err := runApp("predict", "-in", f.graph, "-labels", f.labels, "-dim", "8", "-folds", "2", "-model-out", model); err != nil {
		t.Fatal(err)
	}
	scatter := filepath.Join(f.dir, "s.svg")
	if _, err := runApp("visualize", "-vectors", model, "-labels", f.labels, "-out", scatter); err != nil {
		t.Fatal(err)
	}
	// One circle per vertex plus one per legend entry.
	if n := svgCircles(t, scatter); n != len(f.names)+4 {
		t.Errorf("scatter: %d circles, want %d", n, len(f.names)+4)
	}

	short := filepath.Join(f.dir, "short.txt")
	if err := os.WriteFile(short, []byte("red\ngreen\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{{"-graph", f.graph}, {"-vectors", model}} {
		out := filepath.Join(f.dir, "short.svg")
		_, err := runApp("visualize", append(mode, "-labels", short, "-out", out)...)
		if err == nil || !strings.Contains(err.Error(), "2 labels for 80") {
			t.Errorf("%s with 2 labels: err %v", mode[0], err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s with 2 labels created -out: %v", mode[0], err)
		}
	}
}
