// Command experiments regenerates the paper's tables and figures. Each
// experiment prints the rows/series of the corresponding table or figure.
//
// Examples:
//
//	experiments -exp fig9 -max-workloads 60 -instrs 200000
//	experiments -exp fig19 -cores 8 -mixes 50
//	experiments -exp all -max-workloads 24
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wdl"
)

func main() {
	var (
		exp       = flag.String("exp", "fig9", "experiment: "+strings.Join(experimentNames(experimentTable(0, 0, false)), "|")+", or all")
		warmup    = flag.Uint64("warmup", 100_000, "warmup instructions per workload")
		instrs    = flag.Uint64("instrs", 100_000, "measured instructions per workload")
		maxWl     = flag.Int("max-workloads", 40, "cap on workloads per set (0 = full set)")
		par       = flag.Int("parallel", 0, "concurrent simulations (0 = NumCPU)")
		cores     = flag.Int("cores", 8, "cores for fig19")
		mixes     = flag.Int("mixes", 20, "mixes for fig19")
		pf        = flag.String("prefetcher", "berti", "L1D prefetcher for single-prefetcher experiments: "+strings.Join(sim.L1DPrefetcherNames(), "|"))
		asJSON    = flag.Bool("json", false, "emit results as JSON instead of text")
		timeout   = flag.Duration("timeout", 0, "overall wall-clock budget, e.g. 30m (0 = none); completed experiments are kept on expiry")
		outDir    = flag.String("out-dir", "", "write each experiment's report to <out-dir>/<name>.{txt,json} instead of stdout")
		pprofOut  = flag.String("pprof", "", "write a CPU profile of the campaign to this file")
		check     = flag.Bool("check", false, "run every simulation with the lockstep oracle and invariant sweeps; violations land in the failure ledger under stage \"check\"")
		cacheDir  = flag.String("cache-dir", "", "content-addressed result cache: completed (config, workload) cells are memoized here and re-runs with unchanged configs skip simulation entirely")
		resume    = flag.String("resume", "", "checkpoint manifest (JSONL): completed cells are appended as they finish, and an interrupted campaign re-invoked with the same manifest resumes instead of re-simulating")
		sampled   = flag.Bool("sample", false, "interval-sampled simulation (fast mode) for every run; sampled and full results never share cache entries")
		samplePer = flag.Uint64("sample-period", 0, "with -sample, sampling period in instructions (0 = default)")
		wdlFiles  = flag.String("workload-file", "", "comma-separated .wdl files; their workloads replace the registry set in workload-driven experiments")
		chpsTrcs  = flag.String("champsim-trace", "", "comma-separated ChampSim trace files, used as workloads in workload-driven experiments")
	)
	flag.Parse()

	selected, err := selectExperiments(experimentTable(*cores, *mixes, *asJSON), *exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	custom, err := customWorkloads(*wdlFiles, *chpsTrcs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Ctrl-C / SIGTERM (and -timeout) cancel the campaign context; running
	// matrices observe it at the simulator's watchdog poll grain, so
	// teardown is prompt and everything printed so far stands.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	hardExitOnSecondSignal()

	copts := []campaign.Option{campaign.WithWorkers(*par), campaign.WithCache(*cacheDir), campaign.WithResume(*resume)}
	totals := &campaign.Totals{}
	o := experiments.Options{
		Warmup: *warmup, Instrs: *instrs,
		MaxWorkloads: *maxWl, Prefetcher: *pf,
		Ctx:      ctx,
		Campaign: copts,
		Check:    sim.CheckConfig{Enabled: *check},
		Sample:   sim.SampleConfig{Enabled: *sampled, PeriodInstrs: *samplePer},
		Totals:   totals,
	}
	cfg := sim.DefaultConfig()
	cfg.L1DPrefetcher, cfg.Sample = o.Prefetcher, o.Sample
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	// os.Exit skips defers, so flush the CPU profile explicitly on the
	// error paths; completed profiles from a partial campaign are still
	// useful.
	exit := func(code int) {
		if *pprofOut != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(code)
	}
	for i, e := range selected {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "experiments: interrupted (%v); %d/%d experiments completed above\n",
				ctx.Err(), i, len(selected))
			exit(130)
		}
		fmt.Printf("==> %s (workloads<=%d, %d+%d instrs)\n", e.name, o.MaxWorkloads, o.Warmup, o.Instrs)
		if err := runExperiment(e, o, custom, *outDir, *asJSON); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted (%v); %d/%d experiments completed above\n",
					e.name, err, i, len(selected))
				exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			exit(1)
		}
		fmt.Println()
	}
	// Campaign accounting: `make campaign` asserts a warm-cache re-run
	// prints simulated=0 here.
	fmt.Printf("campaign: %s\n", totals)
}

// experiment is one row of the experiment table: run regenerates a table or
// figure over the custom workload set (nil selects the experiment's own
// registry set) and returns its printable result.
type experiment struct {
	name string
	run  func(experiments.Options, []trace.Workload) (experiments.Printer, error)
	// inAll puts the experiment in "-exp all"; takesCustom admits
	// -workload-file and -champsim-trace workloads.
	inAll, takesCustom bool
}

// experimentTable lists every experiment; the inAll rows appear in "-exp
// all" order. Rows that need a flag beyond Options close over it.
func experimentTable(cores, mixes int, asJSON bool) []experiment {
	return []experiment{
		{"fig2", overWorkloads(experiments.Fig2), true, true},
		{"fig3", overWorkloads(experiments.Fig3), true, true},
		{"fig4", overWorkloads(experiments.Fig4), true, true},
		{"fig9", overWorkloads(experiments.Fig9), true, true},
		{"fig10", overWorkloads(experiments.Fig10), true, true},
		{"fig11", overWorkloads(experiments.Fig11), true, true},
		{"fig12", overWorkloads(experiments.Fig12), true, true},
		{"fig13", overWorkloads(experiments.Fig13), true, true},
		{"fig14", overWorkloads(experiments.Fig14), true, true},
		{"fig15", overWorkloads(experiments.Fig15), true, true},
		{"fig16", overWorkloads(experiments.Fig16), true, true},
		{"fig17", overWorkloads(experiments.Fig17), true, true},
		{"fig18", func(o experiments.Options, ws []trace.Workload) (experiments.Printer, error) {
			if !asJSON {
				fmt.Println("Fig. 18 (unseen workloads):")
			}
			return experiments.Fig18(o, ws)
		}, true, true},
		{"table2", func(o experiments.Options, ws []trace.Workload) (experiments.Printer, error) {
			// The full selection sweep is expensive; restrict the pool to
			// a representative subset.
			return experiments.Table2(o, ws, []string{"Delta", "PC^Delta", "PC", "VA", "VA>>12",
				"CacheLineOffset", "sTLB MPKI", "sTLB MissRate", "LLC MPKI"}, nil)
		}, false, true},
		{"table3", func(experiments.Options, []trace.Workload) (experiments.Printer, error) {
			return experiments.Table3()
		}, true, false},
		{"table5", func(o experiments.Options, _ []trace.Workload) (experiments.Printer, error) {
			return experiments.Table5(o)
		}, true, false},
		{"fig19", func(o experiments.Options, _ []trace.Workload) (experiments.Printer, error) {
			return experiments.Fig19(o, cores, mixes)
		}, true, false},
		{"sweep-epoch", overWorkloads(experiments.EpochSweep), false, true},
		{"sweep-stlb", overWorkloads(experiments.STLBSweep), false, true},
		{"sweep-degree", overWorkloads(experiments.DegreeSweep), false, true},
		{"sweep-vub", overWorkloads(experiments.VUBSweep), false, true},
		{"shapes", overWorkloads(experiments.VerifyShapes), false, true},
	}
}

// overWorkloads adapts an experiment function to the table's run signature.
func overWorkloads[R experiments.Printer](f func(experiments.Options, []trace.Workload) (R, error)) func(experiments.Options, []trace.Workload) (experiments.Printer, error) {
	return func(o experiments.Options, ws []trace.Workload) (experiments.Printer, error) { return f(o, ws) }
}

// experimentNames lists a table's names in order, for -exp help and errors.
func experimentNames(table []experiment) []string {
	var names []string
	for _, e := range table {
		names = append(names, e.name)
	}
	return names
}

// selectExperiments resolves -exp: the table row of that name, or every
// inAll row for "all".
func selectExperiments(table []experiment, name string) ([]experiment, error) {
	var out []experiment
	for _, e := range table {
		if e.name == name || (name == "all" && e.inAll) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want all or one of %s)", name, strings.Join(experimentNames(table), "|"))
	}
	return out, nil
}

// runExperiment runs one experiment and reports its result to stdout, or to
// <outDir>/<name>.{txt,json} when outDir is set.
func runExperiment(e experiment, o experiments.Options, custom []trace.Workload, outDir string, asJSON bool) error {
	if len(custom) > 0 && !e.takesCustom {
		return fmt.Errorf("%s does not take custom workloads", e.name)
	}
	var out io.Writer = os.Stdout
	if outDir != "" {
		ext := ".txt"
		if asJSON {
			ext = ".json"
		}
		f, err := os.Create(filepath.Join(outDir, e.name+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	r, err := e.run(o, custom)
	if err != nil {
		return err
	}
	return experiments.Report(out, e.name, r, asJSON)
}

// customWorkloads assembles the user-supplied workload set: every workload
// from each .wdl file plus one workload per ChampSim trace. A non-empty
// result replaces the registry set in workload-driven experiments.
func customWorkloads(wdlFiles, champsimTraces string) ([]trace.Workload, error) {
	var out []trace.Workload
	for _, path := range splitList(wdlFiles) {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ws, err := wdl.ParseWorkloads(path, src)
		if err != nil {
			return nil, err
		}
		out = append(out, ws...)
	}
	for _, path := range splitList(champsimTraces) {
		w, err := trace.LoadChampSim(path)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// hardExitOnSecondSignal makes a second SIGINT/SIGTERM exit the process
// immediately with status 130. The first signal cancels the campaign's
// context for a graceful teardown (partial results, flushed manifests), but
// signal.NotifyContext swallows every signal after that — without this
// escape hatch a teardown that hangs cannot be interrupted from the
// terminal at all.
func hardExitOnSecondSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs // the graceful one, also delivered to NotifyContext
		<-sigs // the operator has lost patience
		fmt.Fprintln(os.Stderr, "experiments: second signal: exiting immediately")
		os.Exit(130)
	}()
}
