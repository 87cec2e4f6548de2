// Command perfbench is the repository's end-to-end benchmark. It generates
// every input from a seed, runs one of three workloads against the
// simulator and its service, checks every output, and prints the metrics
// that BENCHMARK.json names:
//
//	detail   full-detail cells, one at a time (sim.RunTraceSystem, the path
//	         pagecross.Run takes)
//	sampled  interval-sampled cells, one at a time
//	serve    an in-process pgcd driven by one closed-loop client
//
// Every run does a fixed amount of work: -seconds times a nominal rate per
// workload, so that a run takes about -seconds on an idle 2-vCPU host and
// every run of the same seed does the same work however fast the host is.
// An untraced run (-trace 0) prints the end-to-end metrics. A traced run
// (-trace 1) does half the work untraced and the same half traced, and
// prints the per-layer metrics plus the tracing overhead on each end-to-end
// metric. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: detail, sampled or serve")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "nominal length of the timed phase in seconds; sets the amount of work")
	traced := fs.Int("trace", 0, "1 for a traced run that prints the per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "work directory for daemon state, profiles and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*traced != 0 && *traced != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want -workload detail|sampled|serve -seed N -seconds S -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		dir:      *dir,
		size:     fullSize,
		log:      stderr,
	}
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	dir      string
	size     sizes
	log      io.Writer
}

// sizes fixes the amount of work per cell and per run. fullSize is what
// the command line runs; the package's tests run shortSize.
type sizes struct {
	detailWarmup, detailInstrs   uint64
	sampledWarmup, sampledInstrs uint64
	serveWarmup, serveInstrs     uint64
	// The rates are cells (detail, sampled) or jobs (serve) per nominal
	// second: a run does -seconds times the rate, rounded up to whole
	// rounds. They were measured on an idle 2-vCPU host, where a run then
	// takes about -seconds; they are constants, so the work does not
	// depend on the host's speed.
	detailRate, sampledRate, serveRate float64
	// digestCells and digestJobs are the fixed prefix of every timed
	// phase that the digest and the traced counts cover; no phase is
	// shorter.
	digestCells, digestJobs int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

var fullSize = sizes{
	detailWarmup: 50_000, detailInstrs: 100_000,
	sampledWarmup: 50_000, sampledInstrs: 3_000_000,
	serveWarmup: 20_000, serveInstrs: 40_000,
	detailRate: 16, sampledRate: 7, serveRate: 200,
	digestCells: 24, digestJobs: 100,
	setups: 7,
}

// clock is what a workload's set-up and job times are measured on:
// process CPU time for detail and sampled, which only compute, so that time
// other tenants take from the process does not count (as with their
// throughput); wall time for serve, whose jobs also wait on fsync and the
// loopback connection, as its callers do.
func (c config) clock() func() time.Duration {
	if c.workload == "serve" {
		t0 := time.Now()
		return func() time.Duration { return time.Since(t0) }
	}
	return cpuTime
}

// jobs is the number of cells or jobs of a phase that does the given share
// of a run's work: whole rounds (of round cells or jobs), and never fewer
// than the digest prefix.
func (c config) jobs(share float64) int {
	rate, round, prefix := c.size.serveRate, 10, c.size.digestJobs
	switch c.workload {
	case "detail":
		rate, round, prefix = c.size.detailRate, len(policies)*len(trace.Families()), c.size.digestCells
	case "sampled":
		rate, round, prefix = c.size.sampledRate, len(trace.Families()), c.size.digestCells
	}
	n := max(int(math.Ceil(share*c.seconds.Seconds()*rate)), prefix)
	return (n + round - 1) / round * round
}

// result is everything one invocation prints.
type result struct {
	workload          string
	attempted, failed int
	lines             []string // human-readable lines printed before the JSON
	metrics           []metricValue
}

type metricValue struct {
	name  string
	value float64
	unit  string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metricValue{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines, one line per metric, and the JSON
// result as the last line.
func (r *result) print(w io.Writer) error {
	var b strings.Builder
	for _, l := range r.lines {
		b.WriteString(l + "\n")
	}
	out := map[string]any{}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(&b, "%s/%s %.6g %s\n", r.workload, m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	js, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	b.Write(js)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// bench is one workload after set-up.
type bench interface {
	// phase runs the timed loop over the first n cells or jobs.
	phase(ctx context.Context, n int, tr *tracer) (*phaseResult, error)
	// probe makes the traced run's timed calls into single layers, after
	// the traced phase ph, and gathers the registries that the counts sum.
	probe(ctx context.Context, ph *phaseResult, tr *tracer) (*probeResult, error)
	close() error
}

// ops counts operations attempted and failed across a whole invocation.
// Every failure is logged.
type ops struct {
	attempted, failed int
	log               io.Writer
}

func (o *ops) try(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 20 {
			fmt.Fprintf(o.log, "perfbench: FAILED %s: %v\n", what, err)
		}
		return false
	}
	return true
}

func setup(ctx context.Context, cfg config, o *ops, tr *tracer) (bench, error) {
	switch cfg.workload {
	case "detail", "sampled":
		return setupBatch(ctx, cfg, o, tr)
	case "serve":
		return setupServe(ctx, cfg, o, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want detail, sampled or serve)", cfg.workload)
}

// setupMedian sets up cfg.size.setups times, keeps the last bench and
// returns the median set-up time.
func setupMedian(ctx context.Context, cfg config, o *ops, tr *tracer) (bench, float64, error) {
	var times []float64
	var b bench
	for i := 0; i < cfg.size.setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		now := cfg.clock()
		t0 := now()
		var err error
		if b, err = setup(ctx, cfg, o, tr); err != nil {
			return nil, 0, err
		}
		times = append(times, (now() - t0).Seconds())
	}
	return b, median(times), nil
}

func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	// The work is fixed, so the only deadline is a guard: a run must end
	// within three minutes, so cancel everything well before, while the
	// daemon and its state directory can still be torn down.
	ctx, cancel := context.WithTimeout(ctx, max(170*time.Second, 6*cfg.seconds))
	defer cancel()
	o := &ops{log: cfg.log}
	res := &result{workload: cfg.workload}

	b, setupS, err := setupMedian(ctx, cfg, o, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		ph, err := b.phase(ctx, cfg.jobs(1), nil)
		if cerr := b.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		_, pct := tailOf(ph.jobs)
		res.note("digest %s sha256:%x over the first %d %s", cfg.workload, ph.digest, ph.digestItems, ph.unit)
		res.note("job_ms_tail is p%.2f of %d jobs", pct, len(ph.jobs))
		for _, m := range endToEnd(ph, setupS, peakRSSMB()) {
			res.add(m.name, m.value, m.unit)
		}
		res.attempted, res.failed = o.attempted, o.failed
		return res, nil
	}
	return runTraced(ctx, cfg, b, setupS, o, res)
}

// runTraced is the traced invocation: half of the work untraced, then a
// fresh set-up and the same work again traced, then the layer probes.
func runTraced(ctx context.Context, cfg config, b bench, setupS float64, o *ops, res *result) (*result, error) {
	half := cfg.jobs(0.5)
	phA, err := b.phase(ctx, half, nil)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rssA := peakRSSMB()

	tr := newTracer()
	now := cfg.clock()
	t0 := now()
	b, err = setup(ctx, cfg, o, tr)
	if err != nil {
		return nil, err
	}
	setupTraced := (now() - t0).Seconds()
	defer b.close()

	outDir := filepath.Join(cfg.dir, "trace-"+cfg.workload)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(outDir, "cpu.prof"))
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	phB, err := b.phase(ctx, half, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}
	rssB := peakRSSMB()
	pr, err := b.probe(ctx, phB, tr)
	if err != nil {
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	var derr error
	if phA.digest != phB.digest {
		derr = fmt.Errorf("traced phase digest %x differs from untraced %x", phB.digest, phA.digest)
	}
	o.try("digest", derr)

	shares, err := attributeProfile(filepath.Join(outDir, "cpu.prof"))
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, "spans.jsonl")); err != nil {
		return nil, err
	}

	res.note("digest %s sha256:%x over the first %d %s", cfg.workload, phB.digest, phB.digestItems, phB.unit)
	res.note("profile %s, spans %s", filepath.Join(outDir, "cpu.prof"), filepath.Join(outDir, "spans.jsonl"))
	eA, eB := endToEnd(phA, setupS, rssA), endToEnd(phB, setupTraced, rssB)
	for i := range eA {
		a, t := eA[i], eB[i]
		res.note("untraced %s %.6g %s, traced %.6g %s", a.name, a.value, a.unit, t.value, t.unit)
		over := (t.value/a.value - 1) * 100
		if a.name == "minstr_per_cpu_s" { // the one where higher is better
			over = (a.value/t.value - 1) * 100
		}
		res.add("overhead."+a.name+"_pct", over, "%")
	}
	for _, s := range shares {
		res.add(s.name, s.value, "%")
	}
	for _, m := range timedCalls(tr, pr) {
		res.add(m.name, m.value, m.unit)
	}
	res.add("host.wall_cpu_ratio", phB.wall.Seconds()/phB.cpu.Seconds(), "ratio")
	for _, m := range counts(phB, pr) {
		res.add(m.name, m.value, m.unit)
	}
	res.attempted, res.failed = o.attempted, o.failed
	return res, nil
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	wall, cpu time.Duration
	instrs    uint64    // instructions simulated
	jobs      []float64 // ms of every job on config.clock (a batch cell is a job)
	cold      []float64 // serve: wall ms of the jobs that simulated

	digest      [32]byte
	digestItems int
	unit        string // "cells" or "jobs"

	// The cells simulated in the digest prefix, with their results
	// (batch: runs and registry snapshots; serve: results as served).
	prefixCells  []*cell
	prefixInstrs uint64
	runs         []*stats.Run
	snaps        []metrics.Snapshot
	prefixRaw    [][]byte

	// Traced phases only: the runtime's allocation counters over the
	// prefix and, for serve, the daemon's counter deltas over it.
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	metricz    map[string]uint64 // serve: /metricz delta over the prefix
}

// endToEnd derives the end-to-end metrics of one phase.
func endToEnd(ph *phaseResult, setupS, rssMB float64) []metricValue {
	tail, _ := tailOf(ph.jobs)
	ms := []metricValue{
		{"minstr_per_cpu_s", float64(ph.instrs) / 1e6 / ph.cpu.Seconds(), "Minstr/CPU-s"},
		{"job_ms_p50", median(ph.jobs), "ms"},
	}
	// Every detail and sampled job simulates, so only serve has cold jobs
	// apart from the rest.
	if ph.unit == "jobs" {
		ms = append(ms, metricValue{"cold_job_ms_p50", median(ph.cold), "ms"})
	}
	return append(ms,
		metricValue{"job_ms_tail", tail, "ms"},
		metricValue{"rss_mb", rssMB, "MB"},
		metricValue{"setup_s", setupS, "s"},
	)
}

// tailOf returns the highest percentile of xs that has at least ten values
// beyond it, and that percentile.
func tailOf(xs []float64) (float64, float64) {
	if len(xs) <= 10 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+sys CPU time, garbage collection included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// readMem reads the runtime's allocation counters.
func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
