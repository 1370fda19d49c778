package graph

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := RunningExample()
	labels := make([][]int, g.N)
	for i := range labels {
		labels[i] = []int{i % 2}
	}
	g2, err := New(g.N, g.D, collectEdges(g), collectAttrs(g), labels)
	if err != nil {
		t.Fatal(err)
	}

	edgePath := filepath.Join(dir, "g.edges")
	attrPath := filepath.Join(dir, "g.attrs")
	labelPath := filepath.Join(dir, "g.labels")
	for _, w := range []struct {
		path  string
		write func(f io.Writer) error
	}{
		{edgePath, g2.WriteEdges},
		{attrPath, g2.WriteAttrs},
		{labelPath, g2.WriteLabels},
	} {
		f, err := os.Create(w.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.write(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	loaded, err := LoadFiles(edgePath, attrPath, labelPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N != g2.N || loaded.D != g2.D {
		t.Fatalf("shape %dx%d, want %dx%d", loaded.N, loaded.D, g2.N, g2.D)
	}
	if !loaded.Adj.ToDense().Equal(g2.Adj.ToDense(), 0) {
		t.Fatal("adjacency mismatch after file round trip")
	}
	if !loaded.Attr.ToDense().Equal(g2.Attr.ToDense(), 0) {
		t.Fatal("attribute mismatch after file round trip")
	}
	for v, ls := range loaded.Labels {
		if len(ls) != 1 || ls[0] != v%2 {
			t.Fatalf("labels mismatch at node %d: %v", v, ls)
		}
	}
}

func TestLoadFilesMissing(t *testing.T) {
	if _, err := LoadFiles("/nonexistent/e", "/nonexistent/a", ""); err == nil {
		t.Fatal("missing files accepted")
	}
}

func TestLoadFilesNoLabels(t *testing.T) {
	dir := t.TempDir()
	g := RunningExample()
	edgePath := filepath.Join(dir, "g.edges")
	attrPath := filepath.Join(dir, "g.attrs")
	ef, _ := os.Create(edgePath)
	g.WriteEdges(ef)
	ef.Close()
	af, _ := os.Create(attrPath)
	g.WriteAttrs(af)
	af.Close()
	loaded, err := LoadFiles(edgePath, attrPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Labels != nil {
		t.Fatal("labels should be nil when no label file given")
	}
}

func collectEdges(g *Graph) []Edge {
	var out []Edge
	for u := 0; u < g.N; u++ {
		for _, v := range g.OutNeighbors(u) {
			out = append(out, Edge{Src: u, Dst: int(v)})
		}
	}
	return out
}

func collectAttrs(g *Graph) []AttrEntry {
	var out []AttrEntry
	for v := 0; v < g.N; v++ {
		cols, vals := g.NodeAttrs(v)
		for k, c := range cols {
			out = append(out, AttrEntry{Node: v, Attr: int(c), Weight: vals[k]})
		}
	}
	return out
}

// TestReadRejectsNonIntegerIDs: an id must be a non-negative decimal
// integer in every reader. A float id was once truncated ("2.5 1" loaded
// as edge (2,1)) and an exponent sized n from a float.
func TestReadRejectsNonIntegerIDs(t *testing.T) {
	for _, bad := range []string{"2.5", "1e12", "-1", "0x3"} {
		for _, tc := range []struct {
			name string
			read func(string) error
			text string
		}{
			{"edges src", func(s string) error { _, _, err := ReadEdges(strings.NewReader(s)); return err }, "0 1\n" + bad + " 1\n"},
			{"edges dst", func(s string) error { _, _, err := ReadEdges(strings.NewReader(s)); return err }, "0 1\n1 " + bad + "\n"},
			{"attrs node", func(s string) error { _, _, err := ReadAttrs(strings.NewReader(s)); return err }, "0 1 1\n" + bad + " 1 0.5\n"},
			{"attrs attr", func(s string) error { _, _, err := ReadAttrs(strings.NewReader(s)); return err }, "0 1 1\n1 " + bad + " 0.5\n"},
			{"labels node", func(s string) error { _, err := ReadLabels(strings.NewReader(s), 4); return err }, "0 1\n" + bad + " 1\n"},
			{"labels label", func(s string) error { _, err := ReadLabels(strings.NewReader(s), 4); return err }, "0 1\n1 " + bad + "\n"},
		} {
			err := tc.read(tc.text)
			if err == nil {
				t.Errorf("%s %q: accepted", tc.name, bad)
				continue
			}
			if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("%s %q: error %q does not name line 2", tc.name, bad, err)
			}
		}
	}
	// Weights stay floats.
	attrs, d, err := ReadAttrs(strings.NewReader("3 4 2.5\n1 0 1e-3\n"))
	if err != nil || d != 5 || len(attrs) != 2 || attrs[0].Weight != 2.5 || attrs[1].Weight != 1e-3 {
		t.Fatalf("float weights: %v, d=%d, %v", attrs, d, err)
	}
}
