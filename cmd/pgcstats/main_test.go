package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestWriteStatsMatchesDirectRuns checks the CSV header and that each row's
// IPC is the one a direct sim.RunWorkload of that workload reports.
func TestWriteStatsMatchesDirectRuns(t *testing.T) {
	wls := trace.Seen()[:2]
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.PolicyDripper
	cfg.WarmupInstrs, cfg.SimInstrs = 2_000, 5_000

	var buf bytes.Buffer
	if err := writeStats(&buf, cfg, wls, 2); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(wls) {
		t.Fatalf("%d CSV rows, want header + %d", len(rows), len(wls))
	}
	if h := rows[0]; len(h) != 19 || h[0] != "workload" || h[3] != "ipc" || h[18] != "branch_mpki" {
		t.Fatalf("header = %v", h)
	}
	for i, w := range wls {
		run, err := sim.RunWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		row := rows[1+i]
		if want := strconv.FormatFloat(run.IPC(), 'f', 4, 64); row[0] != w.Name || row[3] != want {
			t.Errorf("row %d = %s ipc %s, want %s ipc %s", i, row[0], row[3], w.Name, want)
		}
	}
}
