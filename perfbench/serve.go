package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/daemon"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// daemonProc is an in-process pgcd: daemon.Open plus its Handler on a
// 127.0.0.1 listener, mounted the way cmd/pgcd mounts it, and the one
// keep-alive client connection that drives it.
type daemonProc struct {
	srv    *daemon.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	closed bool
}

func startDaemon(stateDir, cacheDir string, log io.Writer) (*daemonProc, error) {
	dc := daemon.DefaultConfig(stateDir)
	dc.CacheDir = cacheDir
	// One worker and one running job: the client is a closed loop, so at
	// most one job is ever in flight.
	dc.Workers = 1
	dc.JobConcurrency = 1
	// Set as an operator sets pgcd -rate/-burst for a trusted client, so
	// that by design nothing is refused.
	dc.RatePerSec = 1e6
	dc.Burst = 1 << 20
	dc.Logf = func(format string, args ...any) { fmt.Fprintf(log, "pgcd: "+format+"\n", args...) }
	srv, err := daemon.Open(dc)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemonProc{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		url: "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// post submits a campaign and returns the status code and the whole reply.
func (d *daemonProc) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// metricz reads the daemon's counters through /metricz.
func (d *daemonProc) metricz(ctx context.Context) (map[string]uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricz: %s", resp.Status)
	}
	snap, err := metrics.ParseSnapshot(b)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, m := range snap.Metrics {
		out[m.Name] = m.Value
	}
	return out, nil
}

// close stops the listener, the daemon and the client, and waits for the
// server goroutine to return.
func (d *daemonProc) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	d.client.CloseIdleConnections()
	err := d.hs.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// job is one campaign request of the serve mix.
type job struct {
	name  string
	cells []cell
	body  []byte
}

func newJob(name string, cells []cell) (*job, error) {
	type cellSpec struct {
		ID     string          `json:"id"`
		WDL    string          `json:"wdl"`
		Config json.RawMessage `json:"config"`
	}
	specs := make([]cellSpec, len(cells))
	for i, c := range cells {
		specs[i] = cellSpec{ID: fmt.Sprintf("c%d", i), WDL: string(c.wdl), Config: c.override}
	}
	body, err := json.Marshal(map[string]any{"name": name, "cells": specs, "wait_ms": 30_000})
	return &job{name: name, cells: cells, body: body}, err
}

// reply is the part of a submit response the benchmark checks.
type reply struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Runs      map[string]json.RawMessage `json:"runs"`
		Simulated int                        `json:"simulated"`
		CacheHits int                        `json:"cache_hits"`
	} `json:"result"`
}

// serveBench is the serve workload.
type serveBench struct {
	cfg  config
	o    *ops
	dir  string // state and cache; removed by close
	d    *daemonProc
	warm []*job
	// expected holds every cell's result as first served, by cell key;
	// every later serving must be byte-equal.
	expected map[string][]byte
	prefix   int
}

const warmCampaigns = 8

func setupServe(ctx context.Context, cfg config, o *ops, tr *tracer) (*serveBench, error) {
	dir, err := os.MkdirTemp(cfg.dir, "serve-*")
	if err != nil {
		return nil, err
	}
	s := &serveBench{cfg: cfg, o: o, dir: dir, expected: map[string][]byte{}, prefix: cfg.size.digestJobs}
	if err := s.fill(ctx, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveBench) fill(ctx context.Context, tr *tracer) error {
	fams := trace.Families()
	// The warm set: one small campaign per family, its workload under
	// Permit and under DRIPPER.
	for k := 0; k < warmCampaigns; k++ {
		fam := fams[k%len(fams)]
		seed := mix(s.cfg.seed, 4, uint64(k))
		pf := prefetchers[mix(seed, 0)%3]
		var cells []cell
		for _, pol := range []sim.PolicyKind{sim.PolicyPermit, sim.PolicyDripper} {
			c, err := newCell(fmt.Sprintf("w%d_%s", k, fam), fam, seed, s.override(pol, pf))
			if err != nil {
				return err
			}
			cells = append(cells, c)
		}
		j, err := newJob(fmt.Sprintf("warm%d", k), cells)
		if err != nil {
			return err
		}
		s.warm = append(s.warm, j)
	}

	sp := tr.start("daemon.Open", 0, "setup")
	d, err := startDaemon(filepath.Join(s.dir, "state"), filepath.Join(s.dir, "cache"), s.cfg.log)
	tr.end(sp)
	if err != nil {
		return err
	}
	s.d = d
	for _, j := range s.warm {
		sp := tr.start("http.POST /v1/campaigns", 0, j.name)
		code, body, err := d.post(ctx, j.body)
		tr.end(sp)
		if _, err := s.check(j, true, code, body, err); !s.o.try("fill "+j.name, err) {
			return fmt.Errorf("warm-set fill failed")
		}
	}
	return nil
}

func (s *serveBench) override(pol sim.PolicyKind, pf string) map[string]any {
	z := s.cfg.size
	return map[string]any{"Policy": pol, "L1DPrefetcher": pf, "WarmupInstrs": z.serveWarmup, "SimInstrs": z.serveInstrs}
}

// coldJob builds the i-th new workload of a phase, from the seed alone.
func (s *serveBench) coldJob(i int) (*job, error) {
	fams := trace.Families()
	fam := fams[i%len(fams)]
	seed := mix(s.cfg.seed, 5, uint64(i))
	pol := policies[i%len(policies)]
	c, err := newCell(fmt.Sprintf("n%d_%s", i, fam), fam, seed, s.override(pol, prefetchers[mix(seed, 0)%3]))
	if err != nil {
		return nil, err
	}
	return newJob(fmt.Sprintf("cold%d", i), []cell{c})
}

// check verifies one reply: HTTP 200, state done, every cell present,
// simulated and cache-hit counts as the job's kind implies, a first-served
// cell retiring exactly its budget, and a re-served cell byte-equal to its
// first serving. It returns the cells' results in cell order.
func (s *serveBench) check(j *job, simulates bool, code int, body []byte, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if r.State != "done" || r.Result == nil {
		return nil, fmt.Errorf("job %s: state %q: %s", j.name, r.State, r.Error)
	}
	wantSim, wantHits := 0, len(j.cells)
	if simulates {
		wantSim, wantHits = len(j.cells), 0
	}
	if r.Result.Simulated != wantSim || r.Result.CacheHits != wantHits {
		return nil, fmt.Errorf("job %s: simulated %d cache hits %d, want %d and %d",
			j.name, r.Result.Simulated, r.Result.CacheHits, wantSim, wantHits)
	}
	out := make([][]byte, len(j.cells))
	for i, c := range j.cells {
		raw, ok := r.Result.Runs[fmt.Sprintf("c%d", i)]
		if !ok {
			return nil, fmt.Errorf("job %s: no result for cell c%d", j.name, i)
		}
		if want, seen := s.expected[c.key()]; seen {
			if !bytes.Equal(raw, want) {
				return nil, fmt.Errorf("job %s: cell %s served a result that differs from its first", j.name, c.id)
			}
		} else {
			var runs []*stats.Run
			if err := json.Unmarshal(raw, &runs); err != nil {
				return nil, err
			}
			if len(runs) != 1 || runs[0].Core.Instructions != c.cfg.SimInstrs {
				return nil, fmt.Errorf("job %s: cell %s did not retire its %d instructions", j.name, c.id, c.cfg.SimInstrs)
			}
			s.expected[c.key()] = raw
		}
		out[i] = raw
	}
	return out, nil
}

// phase drives the daemon with one closed-loop client for n jobs. In every
// ten jobs, one submits a new workload (a write), one re-requests a
// workload written earlier in the phase (a read after write), and eight
// re-request a campaign of the warm set (reads). The new workloads are
// built between jobs, outside any job's timing.
func (s *serveBench) phase(ctx context.Context, n int, tr *tracer) (*phaseResult, error) {
	ph := &phaseResult{unit: "jobs"}
	h := sha256.New()
	var mz0 map[string]uint64
	if tr != nil {
		var err error
		if mz0, err = s.d.metricz(ctx); err != nil {
			return nil, err
		}
	}
	m0 := readMemIf(tr)
	var written []*job
	w0, c0 := time.Now(), cpuTime()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var j *job
		simulates := false
		switch {
		case i%10 == 9:
			var err error
			if j, err = s.coldJob(len(written)); err != nil {
				return nil, err
			}
			simulates = true
			written = append(written, j)
		case i%10 == 4 && len(written) > 0:
			j = written[mix(s.cfg.seed, 6, uint64(i))%uint64(len(written))]
		default:
			j = s.warm[mix(s.cfg.seed, 7, uint64(i))%uint64(len(s.warm))]
		}
		req := tr.start("job", 0, fmt.Sprintf("%d:%s", i, j.name))
		t0 := time.Now()
		sp := tr.start("http.POST /v1/campaigns", req, j.name)
		code, body, err := s.d.post(ctx, j.body)
		tr.end(sp)
		d := time.Since(t0)
		raws, err := s.check(j, simulates, code, body, err)
		if s.o.try("job "+j.name, err) {
			ph.jobs = append(ph.jobs, ms(d))
			if simulates {
				ph.cold = append(ph.cold, ms(d))
				for _, c := range j.cells {
					ph.instrs += c.instrs
				}
			}
			if i < s.prefix {
				fmt.Fprintf(h, "%s\n", j.name)
				for _, raw := range raws {
					h.Write(raw)
				}
				ph.digestItems++
				if simulates {
					ph.prefixCells = append(ph.prefixCells, &j.cells[0])
					ph.prefixRaw = append(ph.prefixRaw, raws[0])
					ph.prefixInstrs += j.cells[0].instrs
				}
			}
		}
		if i == s.prefix-1 && tr != nil {
			ph.memDelta(m0, tr)
			mz1, err := s.d.metricz(ctx)
			if err != nil {
				return nil, err
			}
			ph.metricz = delta(mz0, mz1)
		}
		tr.end(req)
	}
	ph.wall, ph.cpu = time.Since(w0), cpuTime()-c0
	copy(ph.digest[:], h.Sum(nil))
	return ph, nil
}

// probe re-simulates the prefix's new cells directly (their registries
// give the traced counts, and each must equal what the daemon served),
// times the single-layer calls on them, and times the warm set's
// campaigns in process and through the daemon.
func (s *serveBench) probe(ctx context.Context, ph *phaseResult, tr *tracer) (*probeResult, error) {
	pr := &probeResult{metricz: ph.metricz}
	var pcs []probeCell
	for i, c := range ph.prefixCells {
		run, sys, err := c.simulate(ctx, tr, 0)
		if err = c.check(run, sys, err); err == nil {
			var raw []byte
			if raw, err = json.Marshal([]*stats.Run{run}); err == nil && !bytes.Equal(raw, ph.prefixRaw[i]) {
				err = fmt.Errorf("direct simulation differs from the daemon's result")
			}
		}
		if s.o.try("re-simulate "+c.id, err) {
			pr.snaps = append(pr.snaps, sys.Snapshot())
			pcs = append(pcs, probeCell{cell: c, run: run, raw: ph.prefixRaw[i]})
		}
	}
	probeDir := filepath.Join(s.dir, "probe")
	if err := probeLayers(ctx, pcs, filepath.Join(probeDir, "cache"), tr, s.o, pr); err != nil {
		return nil, err
	}
	var specs []probeSpec
	for _, j := range s.warm {
		sp := probeSpec{name: j.name, body: j.body}
		for i := range j.cells {
			c := &j.cells[i]
			sp.cells = append(sp.cells, probeCell{cell: c, raw: s.expected[c.key()]})
		}
		specs = append(specs, sp)
	}
	// The service counts stay those of the phase's prefix.
	_, err := probeService(ctx, s.d, specs, filepath.Join(s.dir, "cache"), filepath.Join(probeDir, "manifests"), tr, s.o)
	return pr, err
}

func (s *serveBench) close() error {
	var err error
	if s.d != nil {
		err = s.d.close()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
