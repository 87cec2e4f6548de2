package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wdl"
)

var (
	policies    = []sim.PolicyKind{sim.PolicyPermit, sim.PolicyDiscard, sim.PolicyDripper}
	prefetchers = []string{"berti", "ipcp", "bop"}
)

// cell is one simulation: a configuration and a workload compiled from
// its canonical WDL text, plus what its registry must read afterwards.
type cell struct {
	id       string
	override []byte // the config JSON a pgcd client would send
	cfg      sim.Config
	w        trace.Workload
	wdl      []byte

	instrs uint64 // instructions simulated, functional warmup included
	// retired is core.retired_total; for a sampled cell warm is
	// sample.warm_instrs, measured sample.measured_instrs and segments
	// sample.segments, all from the sampling plan.
	retired, warm, measured, segments uint64
}

// mix derives a sub-seed from seed and a path of indices (splitmix64).
func mix(seed uint64, path ...uint64) uint64 {
	z := seed
	for _, p := range path {
		z += 0x9E3779B97F4A7C15 ^ p*0xBF58476D1CE4E5B9
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return z
}

// newCell builds a cell of the given family from seed. The workload goes
// through wdl.Format and wdl.ParseWorkloads, so the benchmark holds the
// very workload the daemon compiles from the same text; the config is the
// simulator's default with override applied, as the daemon merges it.
func newCell(id, family string, seed uint64, override map[string]any) (cell, error) {
	gc, err := trace.FamilyConfig(family, seed)
	if err != nil {
		return cell{}, err
	}
	text := wdl.Format(trace.Workload{Name: id, Suite: "perfbench", Config: gc})
	ws, err := wdl.ParseWorkloads(id+".wdl", text)
	if err != nil {
		return cell{}, fmt.Errorf("cell %s: %w", id, err)
	}
	ov, err := json.Marshal(override)
	if err != nil {
		return cell{}, err
	}
	cfg := sim.DefaultConfig()
	if err := json.Unmarshal(ov, &cfg); err != nil {
		return cell{}, fmt.Errorf("cell %s: %w", id, err)
	}
	c := cell{id: id, override: ov, cfg: cfg, w: ws[0], wdl: text}
	if !cfg.Sample.Enabled {
		c.retired = cfg.WarmupInstrs + cfg.SimInstrs
		c.instrs = c.retired
		return c, nil
	}
	for _, seg := range cfg.Sample.Plan(cfg.SimInstrs) {
		c.warm += seg.Warm
		c.retired += seg.Ramp + seg.Measure
		c.measured += seg.Measure
		c.segments++
	}
	c.instrs = cfg.WarmupInstrs + c.warm + c.retired
	return c, nil
}

// key names the cell by its workload and its configuration.
func (c *cell) key() string { return c.id + " " + string(c.override) }

// simulate runs the cell on a fresh system, as pagecross.Run does, and
// keeps the system so its registry can be read.
func (c *cell) simulate(ctx context.Context, tr *tracer, parent int) (*stats.Run, *sim.System, error) {
	rd, err := c.w.NewReader()
	if err != nil {
		return nil, nil, err
	}
	sp := tr.start("sim.RunTraceSystem", parent, c.id)
	run, sys, err := sim.RunTraceSystem(ctx, c.cfg, c.w.Name, c.w.Suite, rd)
	tr.end(sp)
	return run, sys, err
}

// check verifies that the run retired exactly its budget: the measured
// instructions of a full-detail cell, or, for a sampled cell, the
// functional-warm and detailed instructions its sampling plan schedules
// for the budget (the plan drops warm-only work after the last interval).
func (c *cell) check(run *stats.Run, sys *sim.System, err error) error {
	if err != nil {
		return err
	}
	val := func(name string) uint64 {
		v, _ := sys.Metrics.Value(name)
		return v
	}
	if got := val("core.retired_total"); got != c.retired {
		return fmt.Errorf("core.retired_total %d, want %d", got, c.retired)
	}
	if c.cfg.Sample.Enabled {
		for _, want := range []struct {
			name string
			n    uint64
		}{{"sample.warm_instrs", c.warm}, {"sample.measured_instrs", c.measured}, {"sample.segments", c.segments}} {
			if got := val(want.name); got != want.n {
				return fmt.Errorf("%s %d, want %d", want.name, got, want.n)
			}
		}
		return nil
	}
	if got := val("core.instructions"); got != c.cfg.SimInstrs || run.Core.Instructions != c.cfg.SimInstrs {
		return fmt.Errorf("core.instructions %d (run %d), want %d", got, run.Core.Instructions, c.cfg.SimInstrs)
	}
	return nil
}

// batchBench is the detail or the sampled workload: cells run one at a
// time, on one goroutine.
type batchBench struct {
	cfg    config
	o      *ops
	cells  []cell
	prefix int
}

func setupBatch(ctx context.Context, cfg config, o *ops, tr *tracer) (*batchBench, error) {
	b := &batchBench{cfg: cfg, o: o, prefix: cfg.size.digestCells}
	fams := trace.Families()
	add := func(id, fam string, seed uint64, ov map[string]any) error {
		sp := tr.start("cell.generate", 0, id)
		c, err := newCell(id, fam, seed, ov)
		tr.end(sp)
		b.cells = append(b.cells, c)
		return err
	}
	s := cfg.size
	// Every cell of the run is a distinct draw from the seed, so that one
	// draw of family parameters moves the metrics little.
	n := cfg.jobs(1)
	if cfg.workload == "detail" {
		// Each round covers every family under every policy; within a
		// round the seed permutes which prefetcher each (family, policy)
		// pair gets, so that every family and every prefetcher appears
		// under all three policies.
		for r := 0; len(b.cells) < n; r++ {
			perm := permute3(mix(cfg.seed, 1, uint64(r)))
			for p, pol := range policies {
				for f, fam := range fams {
					i := len(b.cells)
					ov := map[string]any{
						"Policy": pol, "L1DPrefetcher": prefetchers[perm[(f+p)%3]],
						"WarmupInstrs": s.detailWarmup, "SimInstrs": s.detailInstrs,
					}
					if err := add(fmt.Sprintf("d%d_%s", i, fam), fam, mix(cfg.seed, 2, uint64(i)), ov); err != nil {
						return nil, err
					}
				}
			}
		}
	} else {
		for len(b.cells) < n {
			for _, fam := range fams {
				i := len(b.cells)
				seed := mix(cfg.seed, 3, uint64(i))
				gc, err := trace.FamilyConfig(fam, seed)
				if err != nil {
					return nil, err
				}
				// The sampling seed is the workload's generator seed, as
				// sim.RunWorkload (and so pagecross.Run) sets it.
				ov := map[string]any{
					"Policy": sim.PolicyDripper, "L1DPrefetcher": "berti",
					"WarmupInstrs": s.sampledWarmup, "SimInstrs": s.sampledInstrs,
					"Sample": map[string]any{"enabled": true, "seed": gc.Seed},
				}
				if err := add(fmt.Sprintf("s%d_%s", i, fam), fam, seed, ov); err != nil {
					return nil, err
				}
			}
		}
	}
	// One untimed cell, so that the timed phase starts with the code paged
	// in and the heap grown.
	c := &b.cells[0]
	run, sys, err := c.simulate(ctx, tr, 0)
	if !o.try("warm-up cell "+c.id, c.check(run, sys, err)) {
		return nil, fmt.Errorf("warm-up cell failed")
	}
	return b, nil
}

// permute3 returns the permutation of {0,1,2} that r selects.
func permute3(r uint64) [3]int {
	perms := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	return perms[r%6]
}

func (b *batchBench) phase(ctx context.Context, n int, tr *tracer) (*phaseResult, error) {
	ph := &phaseResult{unit: "cells"}
	m0 := readMemIf(tr)
	w0, c0 := time.Now(), cpuTime()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := &b.cells[i]
		req := tr.start("cell", 0, c.id)
		t0 := cpuTime() // see config.clock
		run, sys, err := c.simulate(ctx, tr, req)
		d := cpuTime() - t0
		if b.o.try("cell "+c.id, c.check(run, sys, err)) {
			ph.instrs += c.instrs
			ph.jobs = append(ph.jobs, ms(d))
			if i < b.prefix {
				sp := tr.start("sim.Snapshot", req, c.id)
				ph.snaps = append(ph.snaps, sys.Snapshot())
				tr.end(sp)
				ph.runs = append(ph.runs, run)
				ph.prefixCells = append(ph.prefixCells, c)
				ph.prefixInstrs += c.instrs
			}
		}
		if i == b.prefix-1 {
			ph.memDelta(m0, tr)
		}
		tr.end(req)
	}
	ph.wall, ph.cpu = time.Since(w0), cpuTime()-c0
	h := sha256.New()
	for _, s := range ph.snaps {
		js, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		h.Write(js)
	}
	copy(ph.digest[:], h.Sum(nil))
	ph.digestItems = len(ph.snaps)
	return ph, nil
}

// probe times the single-layer calls on the first cells of the prefix, and
// serves those cells warm from a probe daemon over a probe cache.
func (b *batchBench) probe(ctx context.Context, ph *phaseResult, tr *tracer) (*probeResult, error) {
	dir, err := os.MkdirTemp(b.cfg.dir, "probe-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	n := min(8, len(ph.prefixCells))
	var pcs []probeCell
	for i := 0; i < n; i++ {
		raw, err := json.Marshal([]*stats.Run{ph.runs[i]})
		if err != nil {
			return nil, err
		}
		pcs = append(pcs, probeCell{cell: ph.prefixCells[i], run: ph.runs[i], raw: raw})
	}
	pr := &probeResult{snaps: ph.snaps}
	cache := filepath.Join(dir, "cache")
	if err := probeLayers(ctx, pcs, cache, tr, b.o, pr); err != nil {
		return nil, err
	}
	d, err := startDaemon(filepath.Join(dir, "state"), cache, b.cfg.log)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var specs []probeSpec
	for _, pc := range pcs {
		specs = append(specs, probeSpec{name: pc.id, cells: []probeCell{pc}})
	}
	if pr.metricz, err = probeService(ctx, d, specs, cache, filepath.Join(dir, "manifests"), tr, b.o); err != nil {
		return nil, err
	}
	return pr, d.close()
}

func (b *batchBench) close() error { return nil }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// readMemIf reads the runtime's allocation counters in traced phases.
func readMemIf(tr *tracer) runtime.MemStats {
	if tr == nil {
		return runtime.MemStats{}
	}
	return readMem()
}

// memDelta records the allocation counters' growth over the prefix.
func (ph *phaseResult) memDelta(m0 runtime.MemStats, tr *tracer) {
	if tr == nil {
		return
	}
	m1 := readMem()
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.gcCycles = m1.NumGC - m0.NumGC
}
