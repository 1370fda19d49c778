package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The text formats are deliberately simple, line-oriented, and
// whitespace-separated so datasets can be produced by any tool:
//
//	edges:  "src dst"            one directed edge per line
//	attrs:  "node attr weight"   one association per line (weight optional, default 1)
//	labels: "node label"         one label per line; nodes may repeat (multi-label)
//
// Lines starting with '#' and blank lines are ignored everywhere.

// WriteEdges writes the graph's edge list in text form.
func (g *Graph) WriteEdges(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < g.N; i++ {
		cols, _ := g.Adj.Row(i)
		for _, c := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d\n", i, c); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteAttrs writes the node-attribute associations in text form.
func (g *Graph) WriteAttrs(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < g.N; i++ {
		cols, vals := g.Attr.Row(i)
		for k, c := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", i, c, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteLabels writes the label assignments in text form.
func (g *Graph) WriteLabels(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, ls := range g.Labels {
		for _, l := range ls {
			if _, err := fmt.Fprintf(bw, "%d %d\n", i, l); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdges parses an edge-list stream. Node ids may be sparse; n is the
// inferred node count (max id + 1).
func ReadEdges(r io.Reader) (edges []Edge, n int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		fields, skip, err := splitLine(sc.Text(), line, 2, 2)
		if err != nil {
			return nil, 0, err
		}
		if skip {
			continue
		}
		src, err := parseID(fields[0], line, 1)
		if err != nil {
			return nil, 0, err
		}
		dst, err := parseID(fields[1], line, 2)
		if err != nil {
			return nil, 0, err
		}
		edges = append(edges, Edge{Src: src, Dst: dst})
		n = max(n, src+1, dst+1)
	}
	return edges, n, sc.Err()
}

// ReadAttrs parses a node-attribute stream, returning the entries and the
// inferred attribute count (max attr id + 1).
func ReadAttrs(r io.Reader) (attrs []AttrEntry, d int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		fields, skip, err := splitLine(sc.Text(), line, 2, 3)
		if err != nil {
			return nil, 0, err
		}
		if skip {
			continue
		}
		node, err := parseID(fields[0], line, 1)
		if err != nil {
			return nil, 0, err
		}
		attr, err := parseID(fields[1], line, 2)
		if err != nil {
			return nil, 0, err
		}
		w := 1.0
		if len(fields) == 3 {
			if w, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, 0, fmt.Errorf("graph: line %d field 3: %v", line, err)
			}
		}
		attrs = append(attrs, AttrEntry{Node: node, Attr: attr, Weight: w})
		d = max(d, attr+1)
	}
	return attrs, d, sc.Err()
}

// ReadLabels parses a label stream into per-node label sets for n nodes.
func ReadLabels(r io.Reader, n int) ([][]int, error) {
	labels := make([][]int, n)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		fields, skip, err := splitLine(sc.Text(), line, 2, 2)
		if err != nil {
			return nil, err
		}
		if skip {
			continue
		}
		v, err := parseID(fields[0], line, 1)
		if err != nil {
			return nil, err
		}
		if v >= n {
			return nil, fmt.Errorf("graph: labels line %d: node %d out of range", line, v)
		}
		l, err := parseID(fields[1], line, 2)
		if err != nil {
			return nil, err
		}
		labels[v] = append(labels[v], l)
	}
	return labels, sc.Err()
}

// splitLine returns the whitespace-separated fields of one line, or skip
// for a blank or comment line.
func splitLine(s string, line, minF, maxF int) (fields []string, skip bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.HasPrefix(s, "#") {
		return nil, true, nil
	}
	fields = strings.Fields(s)
	if len(fields) < minF || len(fields) > maxF {
		return nil, false, fmt.Errorf("graph: line %d: want %d-%d fields, got %d", line, minF, maxF, len(fields))
	}
	return fields, false, nil
}

// parseID parses field (1-based) of a line as a node, attribute or label
// id: a non-negative decimal integer. "2.5", "1e12" and "0x3" are errors,
// not ids 2, 10¹² or 3.
func parseID(p string, line, field int) (int, error) {
	v, err := strconv.Atoi(p)
	if err != nil {
		return 0, fmt.Errorf("graph: line %d field %d: id %q is not a decimal integer", line, field, p)
	}
	if v < 0 {
		return 0, fmt.Errorf("graph: line %d field %d: negative id %d", line, field, v)
	}
	return v, nil
}

// LoadFiles builds a Graph from edge, attribute, and (optionally empty)
// label file paths.
func LoadFiles(edgePath, attrPath, labelPath string) (*Graph, error) {
	ef, err := os.Open(edgePath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	edges, n, err := ReadEdges(ef)
	if err != nil {
		return nil, err
	}
	af, err := os.Open(attrPath)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	attrs, d, err := ReadAttrs(af)
	if err != nil {
		return nil, err
	}
	for _, a := range attrs {
		if a.Node >= n {
			n = a.Node + 1
		}
	}
	var labels [][]int
	if labelPath != "" {
		lf, err := os.Open(labelPath)
		if err != nil {
			return nil, err
		}
		defer lf.Close()
		labels, err = ReadLabels(lf, n)
		if err != nil {
			return nil, err
		}
	}
	return New(n, d, edges, attrs, labels)
}
