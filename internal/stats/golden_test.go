package stats

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestTableRenderGolden pins Table.Render byte-for-byte: title and header
// alignment, column widths driven by the widest cell, %.2f float
// formatting, integer and preformatted rows, and insertion-order row
// placement. The parallel experiment Runner relies on rendered-table
// byte-identity as its determinism oracle, so any change here is a
// deliberate, reviewed format change (`go test ./internal/stats
// -run Golden -update-golden` refreshes the file).
func TestTableRenderGolden(t *testing.T) {
	tbl := NewTable("Fig6: speedup vs pthread", "MSA-0", "MCS-Tour", "MSA/OMU-2")
	tbl.AddRow("radiosity/64c", 1.0449, 1.18, 1.2399)   // rounds down
	tbl.AddRow("streamcluster/64c", 0.997, 2.26, 7.506) // rounds up, widens col
	tbl.AddRow("a-very-long-benchmark-name/64c", 0.5, 10.25, 100.125)
	tbl.AddRowInts("sync ops", 12, 3456, 789)
	tbl.AddRowStrings("notes", "HW", "SW", "HW+OMU")
	tbl.AddRow("GeoMean", 1.0, 1.5333, 3.0)

	var got bytes.Buffer
	tbl.Render(&got)

	golden := filepath.Join("testdata", "table_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rendered table differs from golden file.\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestTableRowOrderPreserved guards against silent reordering: rows come
// back in exactly the order they were added, and SortRows is the only way
// to change that.
func TestTableRowOrderPreserved(t *testing.T) {
	tbl := NewTable("order", "V")
	labels := []string{"zeta", "alpha", "mid", "alpha2", "beta"}
	for i, l := range labels {
		tbl.AddRow(l, float64(i))
	}
	for i, l := range labels {
		if got := tbl.RowLabel(i); got != l {
			t.Errorf("row %d label = %q, want %q", i, got, l)
		}
	}
	tbl.SortRows()
	sorted := []string{"alpha", "alpha2", "beta", "mid", "zeta"}
	for i, l := range sorted {
		if got := tbl.RowLabel(i); got != l {
			t.Errorf("after SortRows, row %d = %q, want %q", i, got, l)
		}
	}
}
