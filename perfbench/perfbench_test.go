package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shortSize runs every workload at a size that finishes in seconds.
var shortSize = sizes{
	detailWarmup: 5_000, detailInstrs: 10_000,
	sampledWarmup: 5_000, sampledInstrs: 200_000,
	serveWarmup: 2_000, serveInstrs: 5_000,
	detailRate: 1, sampledRate: 1, serveRate: 1,
	digestCells: 12, digestJobs: 20,
	setups: 2,
}

// spec is the part of BENCHMARK.json the output must match.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type output struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
	digest string
}

// runShort runs one short invocation and parses what it prints.
func runShort(t *testing.T, workload string, seed uint64, traced bool) output {
	t.Helper()
	dir := t.TempDir()
	var log bytes.Buffer
	res, err := run(context.Background(), config{
		workload: workload, seed: seed, seconds: 200 * time.Millisecond, traced: traced,
		dir: dir, size: shortSize, log: &log,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var o output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", workload, o.Correct, o.Failed, o.Attempted, log.String())
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "digest "+workload+" sha256:") {
			o.digest = strings.Fields(l)[2]
		}
	}
	if o.digest == "" {
		t.Fatalf("%s: no digest line in\n%s", workload, out.String())
	}
	// The daemon's state directory lives only as long as the run.
	if left, _ := filepath.Glob(filepath.Join(dir, "serve-*")); len(left) > 0 {
		t.Errorf("%s: state directories left behind: %v", workload, left)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "probe-*")); len(left) > 0 {
		t.Errorf("%s: probe directories left behind: %v", workload, left)
	}
	return o
}

// workloads is every workload the benchmark runs: those BENCHMARK.json
// names, and serve, which it leaves out (see README.md).
func workloads(s spec) []string {
	var ws []string
	for _, w := range s.Workloads {
		ws = append(ws, w.Name)
	}
	return append(ws, "serve")
}

// checkMetrics checks that o holds exactly the metrics want names, with
// their units. serve prints one more end-to-end metric, cold_job_ms_p50,
// and its tracing overhead.
func checkMetrics(t *testing.T, workload string, o output, want []struct{ Name, Unit string }, traced bool) {
	t.Helper()
	if workload == "serve" {
		extra := struct{ Name, Unit string }{"cold_job_ms_p50", "ms"}
		if traced {
			extra = struct{ Name, Unit string }{"overhead.cold_job_ms_p50_pct", "%"}
		}
		want = append(append([]struct{ Name, Unit string }(nil), want...), extra)
	}
	if len(o.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", workload, len(o.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := o.Metrics[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestShortRuns runs every workload small: every end-to-end metric prints
// with its unit, nothing fails, the same seed does the same work, and the
// digest depends on the seed and on nothing else.
func TestShortRuns(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads(s) {
		w := w
		t.Run(w, func(t *testing.T) {
			a := runShort(t, w, 1, false)
			checkMetrics(t, w, a, s.EndToEnd, false)
			for name, m := range a.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
				}
			}
			b := runShort(t, w, 1, false)
			if b.digest != a.digest {
				t.Errorf("%s: same seed, digests %s and %s", w, a.digest, b.digest)
			}
			// The work is fixed, not bounded by a deadline.
			if b.Attempted != a.Attempted {
				t.Errorf("%s: same seed, %d then %d operations attempted", w, a.Attempted, b.Attempted)
			}
			if c := runShort(t, w, 2, false); c.digest == a.digest {
				t.Errorf("%s: seeds 1 and 2 give the same digest %s", w, a.digest)
			}
		})
	}
}

// deterministic lists the traced counts that must repeat exactly: the
// simulator's registries and the daemon's counters. The runtime's
// allocation counts also see the Go runtime's own work and are left out.
func deterministic(name string) bool {
	for _, p := range []string{"cpu.", "cache.", "tlb.", "ptw.", "dram.", "core.", "prefetch.", "sample.", "campaign.cache_hit_ratio", "daemon.warm_served_ratio", "daemon.rejected"} {
		if strings.HasPrefix(name, p) && !strings.HasSuffix(name, "_pct") {
			return true
		}
	}
	return false
}

// TestTracedRuns checks that a traced run prints every per-layer metric,
// that the CPU shares cover the whole profile, and that the counts repeat
// exactly for the same seed.
func TestTracedRuns(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads(s) {
		w := w
		t.Run(w, func(t *testing.T) {
			a := runShort(t, w, 1, true)
			checkMetrics(t, w, a, s.PerLayer, true)
			total := a.Metrics["bench.cpu_pct"].Value + a.Metrics["runtime.bg_cpu_pct"].Value
			for _, l := range layers {
				total += a.Metrics[l+".cpu_pct"].Value
			}
			if total < 99.9 || total > 100.1 {
				t.Errorf("%s: CPU shares sum to %.2f%%", w, total)
			}
			b := runShort(t, w, 1, true)
			for name, m := range a.Metrics {
				if deterministic(name) && b.Metrics[name].Value != m.Value {
					t.Errorf("%s: %s is %v, then %v", w, name, m.Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestLayerOf pins the frame-to-layer rule of the CPU attribution.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Cache).gcOutstanding":   "cache",
		"repro/internal/daemon.(*Server).Handler.func1": "daemon",
		"repro/internal/stats.AddDelta":                 "",
		"main.(*batchBench).phase":                      "bench",
		"runtime.mallocgc":                              "",
		"encoding/json.Marshal":                         "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
