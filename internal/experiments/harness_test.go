package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/trace"
)

// poisonOpts keeps degraded-matrix tests fast under -race.
func poisonOpts() Options {
	return Options{Warmup: 5_000, Instrs: 10_000}
}

// poisonedWorkload clones a real workload under a sentinel name; the
// Configure hook arms the fault injector for it only.
func poisonedWorkload(t *testing.T) trace.Workload {
	t.Helper()
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload spec.stream_s00 missing")
	}
	w.Name = "spec.poisoned"
	return w
}

// sevenScenarios is the full §V-A scenario column set.
func sevenScenarios() []Scenario {
	return []Scenario{
		scenarioPermit(), scenarioDiscard(), scenarioDiscardPTW(),
		scenarioISO(), scenarioPPF(), scenarioPPFDthr(), scenarioDripper(),
	}
}

// TestDegradedMatrixSurvivesPoisonedWorkload is the acceptance scenario: a
// 7-scenario matrix with one workload whose trace decoder panics must still
// return every other (scenario, workload) pair plus an explicit ledger.
func TestDegradedMatrixSurvivesPoisonedWorkload(t *testing.T) {
	good := tinySet(t)[:2]
	poisoned := poisonedWorkload(t)
	wls := append(append([]trace.Workload{}, good...), poisoned)
	scens := sevenScenarios()

	o := poisonOpts()
	o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
		if wl.Name == poisoned.Name {
			cfg.FaultInject = faultinject.New(faultinject.Config{PanicAtRecord: 1_000})
		}
	}

	m, err := RunMatrix(o, wls, scens)
	var me *MatrixError
	if !errors.As(err, &me) {
		t.Fatalf("error %v is not a *MatrixError despite a poisoned workload", err)
	}
	if me.Total != len(scens)*len(wls) {
		t.Fatalf("total = %d", me.Total)
	}

	// Every non-poisoned pair completed.
	for _, sc := range scens {
		runs := m[sc.Name]
		if runs == nil {
			t.Fatalf("scenario %s missing entirely", sc.Name)
		}
		for _, w := range good {
			if runs[w.Name] == nil {
				t.Fatalf("run %s/%s missing", sc.Name, w.Name)
			}
		}
		if runs[poisoned.Name] != nil {
			t.Fatalf("poisoned run %s/%s present", sc.Name, poisoned.Name)
		}
	}

	// The ledger lists exactly the poisoned pairs, as recovered panics.
	if len(me.Failures) != len(scens) {
		t.Fatalf("ledger has %d entries, want %d: %+v", len(me.Failures), len(scens), me.Failures)
	}
	for i, f := range me.Failures {
		if f.Workload != poisoned.Name {
			t.Fatalf("unexpected failure %s/%s: %v", f.Scenario, f.Workload, f.Err)
		}
		var re *sim.RunError
		if !errors.As(f.Err, &re) || !re.Panicked {
			t.Fatalf("failure %s/%s is not a recovered panic: %v", f.Scenario, f.Workload, f.Err)
		}
		if i > 0 && me.Failures[i-1].Scenario >= f.Scenario {
			t.Fatalf("ledger not sorted by scenario: %+v", me.Failures)
		}
	}
	// The aggregated error unwraps to the first failure's typed cause.
	var re *sim.RunError
	if !errors.As(err, &re) || !re.Panicked || !strings.Contains(err.Error(), poisoned.Name) {
		t.Fatalf("aggregated error %v does not unwrap to the first recovered panic", err)
	}

	// The strict reductions name the missing pair; the survivors reduce
	// once the degraded workload is left out.
	if _, _, err := m.Speedups("Permit PGC", "Discard PGC", wls); err == nil {
		t.Fatal("strict Speedups accepted a degraded matrix")
	} else if !strings.Contains(err.Error(), poisoned.Name) {
		t.Fatalf("strict Speedups error does not name the missing pair: %v", err)
	}
	if g, err := m.Geomean("Permit PGC", "Discard PGC", good); err != nil || g <= 0 {
		t.Fatalf("geomean over the surviving workloads = %g, %v", g, err)
	}
}

// TestRunMatrixReturnsPartialOnError pins the satellite fix: the one-shot
// wrapper must return the completed portion alongside the aggregated error.
func TestRunMatrixReturnsPartialOnError(t *testing.T) {
	good := tinySet(t)[:1]
	poisoned := poisonedWorkload(t)
	wls := append(append([]trace.Workload{}, good...), poisoned)

	o := poisonOpts()
	o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
		if wl.Name == poisoned.Name {
			cfg.FaultInject = faultinject.New(faultinject.Config{PanicAtRecord: 1_000})
		}
	}
	m, err := RunMatrix(o, wls, []Scenario{scenarioDiscard(), scenarioPermit()})
	if err == nil {
		t.Fatal("poisoned matrix returned no error")
	}
	if m == nil {
		t.Fatal("completed portion dropped")
	}
	for _, sc := range []string{"Discard PGC", "Permit PGC"} {
		if m[sc][good[0].Name] == nil {
			t.Fatalf("completed run %s/%s dropped", sc, good[0].Name)
		}
	}
}

func TestRunMatrixCancellationIsPrompt(t *testing.T) {
	wls := tinySet(t)
	ctx, cancel := context.WithCancel(context.Background())
	totals := &campaign.Totals{}
	o := Options{Warmup: 0, Instrs: 2_000_000_000, Ctx: ctx, Totals: totals,
		Campaign: []campaign.Option{campaign.WithWorkers(2)}}

	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	m, err := RunMatrix(o, wls, sevenScenarios())
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m == nil {
		t.Fatal("matrix missing on cancellation")
	}
	// Teardown is bounded by the watchdog poll grain (microseconds of
	// simulated work per check), not the multi-minute instruction budget;
	// 5s is hundreds of poll intervals of slack for a loaded CI machine.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Cancelled runs are not individual failures.
	if totals.Failed != 0 {
		t.Fatalf("cancellation produced %d ledger entries", totals.Failed)
	}
}

func TestRunMatrixRetriesTransientFailures(t *testing.T) {
	wls := tinySet(t)[:1]
	inj := faultinject.New(faultinject.Config{FailAttempts: 2})
	o := poisonOpts()
	o.Campaign = append(o.Campaign, campaign.WithRetries(3, time.Millisecond))
	o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
		cfg.FaultInject = inj
	}
	m, err := RunMatrix(o, wls, []Scenario{scenarioDiscard()})
	if err != nil {
		t.Fatalf("transient failures not absorbed: %v", err)
	}
	if m["Discard PGC"][wls[0].Name] == nil {
		t.Fatal("run missing after retries")
	}
	if inj.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3 (2 failures + 1 success)", inj.Attempts())
	}
}

func TestRunMatrixDoesNotRetryDeterministicStalls(t *testing.T) {
	wls := tinySet(t)[:1]
	inj := faultinject.New(faultinject.Config{StallRetireAfter: 2_000})
	o := poisonOpts()
	o.Campaign = append(o.Campaign, campaign.WithRetries(5, time.Millisecond))
	o.Watchdog = sim.WatchdogConfig{NoRetireBound: 20_000, PollEvery: 1_000}
	o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
		cfg.FaultInject = inj
	}
	_, err := RunMatrix(o, wls, []Scenario{scenarioDiscard()})
	var me *MatrixError
	if !errors.As(err, &me) || len(me.Failures) != 1 {
		t.Fatalf("err = %v, want a one-entry ledger", err)
	}
	f := me.Failures[0]
	if f.Attempts != 1 {
		t.Fatalf("deterministic stall retried %d times", f.Attempts)
	}
	var stall *sim.StallError
	if !errors.As(f.Err, &stall) {
		t.Fatalf("ledger error %v is not a StallError", f.Err)
	}
}

// TestMatrixLedgersCheckViolations pins the checker/ledger integration: an
// injected MSHR leak on one workload of a checked matrix must land in the
// failure ledger as a RunError with stage "check" wrapping a *sim.CheckError
// — never as a generic recovered panic — for both FailFast (panic unwind)
// and accumulate (returned error) modes, and sim.CheckFailure must find the
// violation in exactly those entries.
func TestMatrixLedgersCheckViolations(t *testing.T) {
	for _, failFast := range []bool{false, true} {
		name := "accumulate"
		if failFast {
			name = "failfast"
		}
		t.Run(name, func(t *testing.T) {
			good := tinySet(t)[:1]
			leaky := poisonedWorkload(t)
			wls := append(append([]trace.Workload{}, good...), leaky)

			o := poisonOpts()
			o.Check = sim.CheckConfig{Enabled: true, FailFast: failFast}
			o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
				if wl.Name == leaky.Name {
					cfg.FaultInject = faultinject.New(faultinject.Config{MSHRLeakEveryN: 20})
				}
			}

			m, err := RunMatrix(o, wls, []Scenario{scenarioDiscard(), scenarioDripper()})
			var me *MatrixError
			if !errors.As(err, &me) {
				t.Fatalf("err = %v, want a *MatrixError", err)
			}
			// Healthy pairs completed under full checking.
			for _, sc := range []string{"Discard PGC", "DRIPPER"} {
				if m[sc][good[0].Name] == nil {
					t.Fatalf("checked run %s/%s missing", sc, good[0].Name)
				}
			}
			if len(me.Failures) != 2 {
				t.Fatalf("ledger has %d entries, want 2: %+v", len(me.Failures), me.Failures)
			}
			for _, f := range me.Failures {
				if f.Workload != leaky.Name {
					t.Fatalf("unexpected check failure %s/%s: %v", f.Scenario, f.Workload, f.Err)
				}
				var re *sim.RunError
				if !errors.As(f.Err, &re) || re.Stage != "check" || re.Panicked {
					t.Fatalf("failure %s/%s not ledgered as a non-panic check stage: %+v",
						f.Scenario, f.Workload, re)
				}
				ce := sim.CheckFailure(f.Err)
				if ce == nil || ce.First().Invariant != "mshr-leak" {
					t.Fatalf("failure %s/%s lost the violation detail: %v", f.Scenario, f.Workload, f.Err)
				}
				if sim.Retryable(f.Err) {
					t.Fatal("an invariant violation must not be retried")
				}
			}
		})
	}
}
