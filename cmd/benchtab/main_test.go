package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
)

// TestTablesJSONRoundTrip: a TablesRecord written by WriteTablesJSON reads
// back as the tables benchtab printed, under a named clock, and the committed
// BENCH_tables.json is such a record of exactly the paper's tables, in
// benchtab's order.
func TestTablesJSONRoundTrip(t *testing.T) {
	var tabs []bench.Table
	for _, fn := range []func() (bench.Table, error){bench.Hardware, bench.Table1} {
		tb, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tb)
	}
	path := filepath.Join(t.TempDir(), "tables.json")
	if err := bench.WriteTablesJSON(path, tabs); err != nil {
		t.Fatal(err)
	}
	got := readTablesRecord(t, path)
	if got.Clock == "" {
		t.Fatal("record names no clock")
	}
	if !reflect.DeepEqual(got.Tables, tabs) {
		t.Fatalf("tables do not round-trip:\n got %+v\nwant %+v", got.Tables, tabs)
	}

	committed := readTablesRecord(t, filepath.Join("..", "..", "BENCH_tables.json"))
	var ids []string
	for _, tb := range committed.Tables {
		ids = append(ids, tb.ID)
		if len(tb.Rows) == 0 {
			t.Errorf("committed %s has no rows", tb.ID)
		}
	}
	want := []string{"Hardware", "Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "GC", "Model", "Recovery", "RecoveryScaling"}
	if !slices.Equal(ids, want) {
		t.Fatalf("BENCH_tables.json holds %q, want the paper's tables %q (regenerate with -tables-json)", ids, want)
	}
}

func readTablesRecord(t *testing.T, path string) bench.TablesRecord {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec bench.TablesRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rec
}
