package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wdl"
)

// probeCell is a cell whose result is known: raw is the result as the
// daemon serves it (a one-element []*stats.Run in JSON).
type probeCell struct {
	*cell
	run *stats.Run
	raw []byte
}

// probeSpec is a campaign the probe runs warm, in process and through the
// daemon. body, when set, is the request the workload itself sends.
type probeSpec struct {
	name  string
	cells []probeCell
	body  []byte
}

// probeResult is what the traced run's probes add.
type probeResult struct {
	snaps         []metrics.Snapshot // registries of the counted cells
	genNsPerInstr []float64
	metricz       map[string]uint64 // daemon counter deltas
}

// probeLayers times single-layer calls on each cell: building the system,
// generating its instruction stream with no simulator, compiling its WDL,
// keying it, and storing and reading its result in a cache at cacheDir.
func probeLayers(ctx context.Context, cells []probeCell, cacheDir string, tr *tracer, o *ops, pr *probeResult) error {
	store, err := campaign.OpenStore(cacheDir)
	if err != nil {
		return err
	}
	for _, c := range cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := tr.start("sim.New", 0, c.id)
		_, err := sim.New(c.cfg)
		tr.end(sp)
		o.try("sim.New "+c.id, err)

		n := c.cfg.WarmupInstrs + c.cfg.SimInstrs
		sp = tr.start("trace.NewGen+NextBatch", 0, c.id)
		t0 := time.Now()
		g, err := trace.NewGen(c.w.Config)
		var got uint64
		for err == nil && got < n {
			b := g.NextBatch(4096)
			if len(b) == 0 {
				err = fmt.Errorf("generator ended after %d instructions", got)
			}
			got += uint64(len(b))
		}
		d := time.Since(t0)
		tr.end(sp)
		if o.try("trace generation "+c.id, err) {
			pr.genNsPerInstr = append(pr.genNsPerInstr, float64(d.Nanoseconds())/float64(got))
		}

		sp = tr.start("wdl.ParseWorkloads", 0, c.id)
		ws, err := wdl.ParseWorkloads(c.id+".wdl", c.wdl)
		tr.end(sp)
		if err == nil && (len(ws) != 1 || !reflect.DeepEqual(ws[0], c.w)) {
			err = fmt.Errorf("WDL compiles to another workload")
		}
		o.try("wdl compile "+c.id, err)

		sp = tr.start("campaign.KeyOf", 0, c.id)
		key, err := campaign.KeyOf(c.cfg, c.w)
		tr.end(sp)
		if !o.try("campaign.KeyOf "+c.id, err) {
			continue
		}
		sp = tr.start("campaign.Store.Put", 0, c.id)
		err = store.Put(key, []*stats.Run{c.run})
		tr.end(sp)
		o.try("store put "+c.id, err)
		sp = tr.start("campaign.Store.Get", 0, c.id)
		runs, ok := store.Get(key)
		tr.end(sp)
		err = nil
		if raw, _ := json.Marshal(runs); !ok || !bytes.Equal(raw, c.raw) {
			err = fmt.Errorf("cache returned another result")
		}
		o.try("store get "+c.id, err)
	}
	return nil
}

// probeService runs each spec warm from cacheDir twice: in process with
// campaign.Run (as the daemon's warm path calls it, with a fresh resume
// manifest), and as a submit to the daemon. It returns the daemon's
// counter deltas over the probe.
func probeService(ctx context.Context, d *daemonProc, specs []probeSpec, cacheDir, manifestDir string, tr *tracer, o *ops) (map[string]uint64, error) {
	if err := os.MkdirAll(manifestDir, 0o755); err != nil {
		return nil, err
	}
	mz0, err := d.metricz(ctx)
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		cs := campaign.Spec{Name: sp.name}
		var cells []cell
		for k, pc := range sp.cells {
			cs.Cells = append(cs.Cells, campaign.Cell{ID: fmt.Sprintf("c%d", k), Config: pc.cfg, Workload: pc.w})
			cells = append(cells, *pc.cell)
		}
		h := tr.start("campaign.Run", 0, sp.name)
		rep, err := campaign.Run(ctx, cs, campaign.WithCache(cacheDir), campaign.WithWorkers(1),
			campaign.WithResume(filepath.Join(manifestDir, fmt.Sprintf("%d.jsonl", i))))
		tr.end(h)
		if err == nil && (rep.CacheHits != len(cs.Cells) || rep.Simulated != 0) {
			err = fmt.Errorf("warm campaign simulated %d cells", rep.Simulated)
		}
		for k, pc := range sp.cells {
			if err != nil {
				break
			}
			if raw, _ := json.Marshal([]*stats.Run{rep.Runs[cs.Cells[k].ID]}); !bytes.Equal(raw, pc.raw) {
				err = fmt.Errorf("in-process warm run of %s returned another result", pc.id)
			}
		}
		o.try("warm campaign.Run "+sp.name, err)

		body := sp.body
		if body == nil {
			j, err := newJob(sp.name, cells)
			if err != nil {
				return nil, err
			}
			body = j.body
		}
		h = tr.start("daemon.warm_round_trip", 0, sp.name)
		code, b, err := d.post(ctx, body)
		tr.end(h)
		if err == nil && code == 200 {
			var r reply
			if err = json.Unmarshal(b, &r); err == nil {
				switch {
				case r.State != "done" || r.Result == nil:
					err = fmt.Errorf("state %q: %s", r.State, r.Error)
				case r.Result.Simulated != 0:
					err = fmt.Errorf("warm submit simulated %d cells", r.Result.Simulated)
				}
				for k, pc := range sp.cells {
					if err == nil && !bytes.Equal(r.Result.Runs[fmt.Sprintf("c%d", k)], pc.raw) {
						err = fmt.Errorf("daemon served another result for %s", pc.id)
					}
				}
			}
		} else if err == nil {
			err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(b))
		}
		o.try("warm submit "+sp.name, err)
	}
	mz1, err := d.metricz(ctx)
	if err != nil {
		return nil, err
	}
	return delta(mz0, mz1), nil
}

// delta returns the growth of each counter from before to after.
func delta(before, after map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// timedCalls turns the probe spans into per-layer call times (medians).
func timedCalls(tr *tracer, pr *probeResult) []metricValue {
	med := func(name string, unit time.Duration) float64 {
		var xs []float64
		for _, d := range tr.durations(name) {
			xs = append(xs, float64(d)/float64(unit))
		}
		return median(xs)
	}
	warmRun := med("campaign.Run", time.Millisecond)
	return []metricValue{
		{"sim.new_ms", med("sim.New", time.Millisecond), "ms"},
		{"trace.gen_ns_per_instr", median(pr.genNsPerInstr), "ns/instr"},
		{"wdl.compile_us", med("wdl.ParseWorkloads", time.Microsecond), "us"},
		{"campaign.keyof_us", med("campaign.KeyOf", time.Microsecond), "us"},
		{"campaign.store_get_us", med("campaign.Store.Get", time.Microsecond), "us"},
		{"campaign.store_put_us", med("campaign.Store.Put", time.Microsecond), "us"},
		{"campaign.warm_run_ms", warmRun, "ms"},
		{"daemon.overhead_ms", med("daemon.warm_round_trip", time.Millisecond) - warmRun, "ms"},
	}
}

// counts derives the deterministic per-layer counts: the simulator's
// registry summed over the counted cells, the runtime's allocations over
// the phase's prefix, and the daemon's counters.
func counts(ph *phaseResult, pr *probeResult) []metricValue {
	sum := map[string]float64{}
	for _, s := range pr.snaps {
		for _, m := range s.Metrics {
			if m.Kind != metrics.KindHistogram {
				sum[m.Name] += float64(m.Value)
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += sum[n]
		}
		return t
	}
	kinstr := v("core.instructions") / 1000
	pki := func(names ...string) float64 { return ratio(v(names...), kinstr) }
	prefixK := float64(ph.prefixInstrs) / 1000
	rejected := 0.0
	for k, n := range pr.metricz {
		if strings.HasPrefix(k, "daemon.rejected.") {
			rejected += float64(n)
		}
	}
	mz := func(n string) float64 { return float64(pr.metricz[n]) }
	return []metricValue{
		{"cpu.ipc", ratio(v("core.instructions"), v("core.cycles")), "instr/cycle"},
		{"cpu.rob_stall_frac", ratio(v("core.rob_stall_cycles"), v("core.cycles")), "ratio"},
		{"cpu.mispredict_pki", pki("core.mispredicts"), "1/kinstr"},
		{"cache.l1d_mpki", pki("l1d.demand_misses"), "1/kinstr"},
		{"cache.l2c_mpki", pki("l2c.demand_misses"), "1/kinstr"},
		{"cache.llc_mpki", pki("llc.demand_misses"), "1/kinstr"},
		{"cache.mshr_full_waits_pki", pki("l1d.mshr_full_waits", "l2c.mshr_full_waits", "llc.mshr_full_waits"), "1/kinstr"},
		{"tlb.dtlb_mpki", pki("dtlb.demand_misses"), "1/kinstr"},
		{"tlb.stlb_mpki", pki("stlb.demand_misses"), "1/kinstr"},
		{"ptw.walks_pki", pki("ptw.walks"), "1/kinstr"},
		{"ptw.speculative_walks_pki", pki("ptw.speculative_walks"), "1/kinstr"},
		{"ptw.psc_hits_per_walk", ratio(v("ptw.psc_hits"), v("ptw.walks", "ptw.speculative_walks")), "ratio"},
		{"dram.reads_pki", pki("dram.reads"), "1/kinstr"},
		{"dram.row_hit_ratio", ratio(v("dram.row_hits"), v("dram.row_hits", "dram.row_misses")), "ratio"},
		{"dram.mean_delay_cycles", ratio(v("dram.total_delay"), v("dram.reads")), "cycles"},
		{"core.pgc_issue_ratio", ratio(v("filter.issued"), v("filter.issued", "filter.discarded")), "ratio"},
		{"core.pgc_useful_ratio", ratio(v("l1d.pgc_useful"), v("l1d.pgc_issued")), "ratio"},
		// l1d.prefetch_issued is never counted at the L1D, so usefulness is
		// taken over the prefetched blocks filled.
		{"prefetch.useful_ratio", ratio(v("l1d.useful_prefetches"), v("l1d.prefetch_fills")), "ratio"},
		{"sample.warm_frac", ratio(v("sample.warm_instrs"), float64(ph.prefixInstrs)), "ratio"},
		{"sample.segments", v("sample.segments"), "count"},
		{"runtime.allocs_per_kinstr", ratio(float64(ph.mallocs), prefixK), "1/kinstr"},
		{"runtime.alloc_bytes_per_kinstr", ratio(float64(ph.allocBytes), prefixK), "B/kinstr"},
		{"runtime.gc_cycles", float64(ph.gcCycles), "count"},
		{"campaign.cache_hit_ratio", ratio(mz("daemon.cells.cache_hits"), mz("daemon.cells.cache_hits")+mz("daemon.cells.simulated")), "ratio"},
		{"daemon.warm_served_ratio", ratio(mz("daemon.jobs.warm_served"), mz("daemon.jobs.submitted")), "ratio"},
		{"daemon.rejected", rejected, "count"},
	}
}

// layers are this repository's modules that run on a timed path, in the
// order their CPU shares are printed.
var layers = []string{"cpu", "cache", "tlb", "ptw", "mmu", "vmem", "dram", "core", "prefetch",
	"trace", "sample", "sim", "metrics", "wdl", "campaign", "daemon"}

// layerOf names the layer a profiled function belongs to: a module of
// this repository, "bench" for the benchmark itself, or "" for anything
// else (the Go runtime, the standard library, and modules off the timed
// paths, whose frames are looked through).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// allocFuncs are the runtime's allocation and write-barrier entry points.
var allocFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice",
	"runtime.makemap", "runtime.nextFreeFast", "runtime.(*mcache).", "runtime.(*mcentral).",
	"runtime.(*mheap).", "runtime.(*mspan).", "runtime.heapSetType", "runtime.deductAssistCredit",
	"runtime.publicationBarrier", "runtime.gcWriteBarrier", "runtime.wbBuf", "runtime.bulkBarrierPreWrite",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// attributeProfile reads a CPU profile and charges each sample to the
// innermost frame that belongs to a layer; samples with none go to
// runtime.bg. Independently, it sorts samples whose leaf is runtime map
// code, and samples in allocation, GC assist or write-barrier code, into
// runtime.map and runtime.alloc.
func attributeProfile(path string) ([]metricValue, error) {
	stacks, err := readProfile(path)
	if err != nil {
		return nil, err
	}
	charged := map[string]int64{}
	var total, mapN, allocN int64
	for _, s := range stacks {
		total += s.n
		owner := "runtime.bg"
		for _, fn := range s.frames {
			if l := layerOf(fn); l != "" {
				owner = l
				break
			}
		}
		charged[owner] += s.n
		if len(s.frames) == 0 {
			continue
		}
		leaf := s.frames[0]
		if strings.HasPrefix(leaf, "runtime.map") || strings.HasPrefix(leaf, "internal/runtime/maps.") {
			mapN += s.n
		}
		alloc := hasAnyPrefix(leaf, allocFuncs)
		if !alloc && len(s.frames) > 1 && (strings.HasPrefix(leaf, "runtime.memclr") || strings.HasPrefix(leaf, "runtime.memmove")) {
			alloc = hasAnyPrefix(s.frames[1], allocFuncs)
		}
		for _, fn := range s.frames {
			if alloc {
				break
			}
			alloc = strings.HasPrefix(fn, "runtime.gcAssistAlloc")
		}
		if alloc {
			allocN += s.n
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s has no samples", path)
	}
	pct := func(n int64) float64 { return 100 * float64(n) / float64(total) }
	var out []metricValue
	for _, l := range layers {
		out = append(out, metricValue{l + ".cpu_pct", pct(charged[l]), "%"})
	}
	return append(out,
		metricValue{"bench.cpu_pct", pct(charged["bench"]), "%"},
		metricValue{"runtime.bg_cpu_pct", pct(charged["runtime.bg"]), "%"},
		metricValue{"runtime.map_cpu_pct", pct(mapN), "%"},
		metricValue{"runtime.alloc_cpu_pct", pct(allocN), "%"},
	), nil
}

// stack is one profile sample: its count and its function names, leaf
// first, inlined frames expanded.
type stack struct {
	n      int64
	frames []string
}

// readProfile decodes the gzipped profile.proto that runtime/pprof writes.
// Only the fields needed for attribution are read: Profile.sample (2),
// .location (4), .function (5), .string_table (6); Sample.location_id (1)
// and .value (2); Location.id (1) and .line (4); Line.function_id (1);
// Function.id (1) and .name (2).
func readProfile(path string) ([]stack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name index
		strs    []string
	)
	err = pbFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					vals = pbUints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.n = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{n: s.n}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if i := funcs[fid]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pbFields calls fn for each field of a protobuf message: v for varint
// fields, b for length-delimited ones. Fixed-width fields are skipped.
func pbFields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := pbVarint(data)
		if n == 0 {
			return fmt.Errorf("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = pbVarint(data); n == 0 {
				return fmt.Errorf("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("truncated fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := pbVarint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("truncated field %d", num)
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("truncated fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated varint field, packed (b) or not (v).
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
