package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format for graphs is a minimal edge list:
//
//	# optional comment lines
//	<n> <m>
//	<u> <v> <w>      (m lines, 0-based node IDs, positive integer weights)
//
// It round-trips any Graph (including multigraphs) deterministically in
// edge-ID order.

// ErrBadFormat is returned for malformed graph files.
var ErrBadFormat = errors.New("graph: bad file format")

// Write serializes g in the text format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.EdgeList() {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph in the text format, validating each edge as its line
// is read, so the first bad line decides the error. A header naming a
// graph too large to index is ErrTooLarge.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	next := func() (string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.EOF
	}
	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadFormat, err)
	}
	fields := strings.Fields(header)
	if len(fields) != 2 {
		return nil, fmt.Errorf("%w: header %q", ErrBadFormat, header)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: node count %q", ErrBadFormat, fields[0])
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("%w: edge count %q", ErrBadFormat, fields[1])
	}
	if err := checkSize(n, m); err != nil {
		return nil, fmt.Errorf("header %q: %w", header, err)
	}
	var edges []Edge
	for i := 0; i < m; i++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("%w: edge %d of %d: %v", ErrBadFormat, i, m, err)
		}
		ef := strings.Fields(line)
		if len(ef) != 3 {
			return nil, fmt.Errorf("%w: edge line %q", ErrBadFormat, line)
		}
		u, err1 := strconv.Atoi(ef[0])
		v, err2 := strconv.Atoi(ef[1])
		w, err3 := strconv.ParseInt(ef[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: edge line %q", ErrBadFormat, line)
		}
		if err := checkEdge(n, u, v, w); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
		edges = append(edges, Edge{U: u, V: v, Weight: w})
	}
	if line, err := next(); err == nil {
		return nil, fmt.Errorf("%w: trailing content %q", ErrBadFormat, line)
	}
	return build(n, edges), nil
}
