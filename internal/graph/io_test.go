package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestGraphIORoundtrip(t *testing.T) {
	for _, g := range []*Graph{
		fromValid(0, nil),
		fromValid(3, nil),
		Grid(3, 4),
		RandomConnected(20, 15, 9, 7),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("roundtrip n=%d m=%d vs %d %d", got.N(), got.M(), g.N(), g.M())
		}
		ge, he := g.EdgeList(), got.EdgeList()
		for i := range ge {
			if ge[i] != he[i] {
				t.Fatalf("edge %d: %+v vs %+v", i, ge[i], he[i])
			}
		}
	}
}

func TestGraphReadCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\n3 2\n# edges\n0 1 5\n\n1 2 7\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Edge(1).Weight != 7 {
		t.Fatalf("parsed wrong: n=%d m=%d", g.N(), g.M())
	}
}

func TestGraphReadErrors(t *testing.T) {
	cases := []string{
		"",                  // missing header
		"3",                 // short header
		"x 2\n0 1 1\n0 2 1", // bad n
		"3 2\n0 1 1",        // missing edge
		"3 1\n0 1",          // short edge line
		"3 1\n0 1 z",        // bad weight
		"2 1\n0 1 1\nextra", // trailing content
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: want error", in)
		}
	}
	if _, err := Read(strings.NewReader("x 2\n")); !errors.Is(err, ErrBadFormat) {
		t.Fatal("want ErrBadFormat")
	}
	// A header naming a graph the engines cannot index is refused before
	// anything its size is allocated or a further line is read.
	for _, in := range []string{
		"1125899906842624 0",  // past the allocator's limit
		"2147483648 0",        // one node past math.MaxInt32
		"3 1073741824\n0 1 1", // 2·m one past math.MaxInt32
	} {
		if g, err := Read(strings.NewReader(in)); !errors.Is(err, ErrTooLarge) || g != nil {
			t.Fatalf("input %q: graph %v, err=%v, want %v", in, g, err, ErrTooLarge)
		}
	}
}

// TestGraphReadRejectsBadEdges pins the sentinel Read returns for each
// edge a graph cannot hold, and that the first bad line decides the error
// when a bad edge and a malformed line meet in one file.
func TestGraphReadRejectsBadEdges(t *testing.T) {
	tests := []struct {
		name, in string
		wantErr  error
	}{
		{name: "self loop", in: "3 2\n0 1 1\n1 1 1\n", wantErr: ErrSelfLoop},
		{name: "zero weight", in: "3 1\n0 1 0\n", wantErr: ErrBadWeight},
		{name: "negative endpoint", in: "3 1\n-1 1 1\n", wantErr: ErrNodeRange},
		{name: "bad edge then malformed line", in: "3 2\n0 5 1\n0 x\n", wantErr: ErrNodeRange},
		{name: "malformed line then bad edge", in: "3 2\n0 x\n0 5 1\n", wantErr: ErrBadFormat},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := Read(strings.NewReader(tt.in))
			for _, sentinel := range []error{ErrBadFormat, ErrNodeRange, ErrSelfLoop, ErrBadWeight} {
				if errors.Is(err, sentinel) != (sentinel == tt.wantErr) || g != nil {
					t.Fatalf("Read(%q) = %v, %v; want %v", tt.in, g, err, tt.wantErr)
				}
			}
		})
	}
}

// Property: Write/Read round-trips arbitrary random graphs.
func TestGraphIOProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%30) + 1
		g := RandomConnected(n, n/2, 100, seed)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.N() == g.N() && got.M() == g.M() && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
