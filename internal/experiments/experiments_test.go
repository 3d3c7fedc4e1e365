package experiments

import (
	"strings"
	"testing"
)

func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := RunWith(id, Config{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != id {
				t.Fatalf("table ID %q", tbl.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("row width %d vs header %d", len(row), len(tbl.Header))
				}
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := RunWith("E99", Config{Quick: true}); err == nil {
		t.Fatal("want unknown-experiment error")
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("got %d experiments", len(ids))
	}
	if ids[0] != "E1" || ids[len(ids)-1] != "E14" {
		t.Fatalf("order: %v", ids)
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  "n",
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== T — demo ==", "long-header", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

// Shape assertions on key claims (quick mode): these encode the
// "who wins / how it scales" expectations from EXPERIMENTS.md.
func TestE3WithinBound(t *testing.T) {
	tbl, err := RunWith("E3", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("Lemma 19 bound violated: %v", row)
		}
	}
}

func TestE4DensityGrows(t *testing.T) {
	tbl, err := RunWith("E4", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Certified layered density (col 3) must exceed base density (col 2)
	// from s >= 8 on.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[3] <= last[2] {
		t.Fatalf("layered density did not exceed base: %v", last)
	}
}
