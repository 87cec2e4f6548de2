package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func TestExperimentTableNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range experimentNames(experimentTable(8, 20, false)) {
		if seen[name] || name == "all" {
			t.Errorf("experiment name %q repeated or reserved", name)
		}
		seen[name] = true
	}
}

// TestSelectExperiments pins the "-exp all" list and order, and rejects an
// unknown name before anything runs.
func TestSelectExperiments(t *testing.T) {
	table := experimentTable(8, 20, false)
	all, err := selectExperiments(table, "all")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig2", "fig3", "fig4", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"table3", "table5", "fig19"}
	if got := experimentNames(all); !reflect.DeepEqual(got, want) {
		t.Fatalf("all = %v\nwant  %v", got, want)
	}
	if one, err := selectExperiments(table, "sweep-vub"); err != nil || len(one) != 1 || one[0].name != "sweep-vub" {
		t.Fatalf("sweep-vub selected %v, %v", experimentNames(one), err)
	}
	if _, err := selectExperiments(table, "fig99"); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("unknown experiment accepted: %v", err)
	}
}

// TestTable3RunsThroughTable runs the one simulation-free experiment the way
// main does, into an -out-dir, and checks the registry-only rows refuse a
// custom workload set.
func TestTable3RunsThroughTable(t *testing.T) {
	sel, err := selectExperiments(experimentTable(8, 20, false), "table3")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := runExperiment(sel[0], experiments.Options{}, nil, dir, false); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join(dir, "table3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "Table III") {
		t.Fatalf("table3 report:\n%s", out)
	}
	custom := []trace.Workload{{Name: "custom.w"}}
	if err := runExperiment(sel[0], experiments.Options{}, custom, dir, false); err == nil {
		t.Fatal("table3 accepted custom workloads")
	}
}
