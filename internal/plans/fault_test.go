package plans_test

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hash"
	"susc/internal/memo"
	"susc/internal/plans"
	"susc/internal/store"
	"susc/internal/verify"
)

// TestFaultInjectionPanicIsolated injects a one-shot panic at each named
// hook of the engines and asserts the isolation contract: the poisoned
// unit surfaces as a typed *budget.InternalError carrying a repro key,
// every sibling plan is still assessed with its true verdict, and the
// process never crashes. With a store attached, the poisoned plan's
// Unknown is not persisted, so a clean rerun recomputes exactly that plan.
// Runs under -race in CI, so the parallel cases also pin down the recovery
// paths' synchronisation.
func TestFaultInjectionPanicIsolated(t *testing.T) {
	w := benchgen.Chained(3, 2) // 8 plans, all valid
	cases := []struct {
		name   string
		point  faultinject.Point
		engine plans.Engine
		store  bool
	}{
		{"legacy-worker", faultinject.PlansWorker, plans.EngineLegacy, false},
		{"fused-worker", faultinject.PlansWorker, plans.EngineFused, false},
		{"fused-expand", faultinject.FusedExpand, plans.EngineFused, false},
		{"fused-replay", faultinject.FusedReplay, plans.EngineFused, false},
		{"fused-store", faultinject.PlansWorker, plans.EngineFused, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(tc.name, func(t *testing.T) {
				opts := plans.Options{Engine: tc.engine, PruneNonCompliant: true, Workers: workers}
				var disk *store.Store
				if tc.store {
					var err error
					disk, err = store.Open(filepath.Join(t.TempDir(), "susc.store"), hash.Fingerprint())
					if err != nil {
						t.Fatal(err)
					}
					defer disk.Close()
					opts.Cache = memo.New()
					opts.Cache.AttachDisk(disk)
				}
				restore := faultinject.Set(faultinject.PanicOnce(tc.point, "", "injected fault"))
				defer restore()
				as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, opts)
				var ie *budget.InternalError
				if !errors.As(err, &ie) {
					t.Fatalf("workers=%d: err = %v, want *budget.InternalError", workers, err)
				}
				if ie.Unit == "" {
					t.Fatal("internal error must carry the repro unit")
				}
				if ie.Stack == "" {
					t.Fatal("internal error must carry the recovery stack")
				}
				if len(as) != w.PlanCount {
					t.Fatalf("workers=%d: %d assessments, want all %d plans despite the panic",
						workers, len(as), w.PlanCount)
				}
				unknown := 0
				for _, a := range as {
					switch a.Report.Verdict {
					case verify.Valid:
					case verify.Unknown:
						unknown++
						if !strings.Contains(a.Report.Reason, "internal error") {
							t.Fatalf("unknown reason = %q, want the internal error", a.Report.Reason)
						}
					default:
						t.Fatalf("plan %s: verdict %s on an all-valid workload", a.Plan, a.Report.Verdict)
					}
				}
				if unknown != 1 {
					t.Fatalf("workers=%d: %d unknown verdicts, want exactly 1 (the poisoned unit)",
						workers, unknown)
				}
				if tc.store {
					checkPoisonedNotPersisted(t, disk, w)
				}
			})
		}
	}
}

// checkPoisonedNotPersisted asserts that disk holds every plan verdict
// but the poisoned one, and that a clean rerun through a fresh cache over
// the same store recomputes exactly that plan.
func checkPoisonedNotPersisted(t *testing.T, disk *store.Store, w *benchgen.ChainedWorld) {
	t.Helper()
	before := disk.Stats().PerKind[store.KindPlanReport]
	if before.Entries != uint64(w.PlanCount-1) {
		t.Fatalf("store holds %d plan entries, want %d (the poisoned Unknown is never persisted)",
			before.Entries, w.PlanCount-1)
	}
	cache := memo.New()
	cache.AttachDisk(disk)
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		if a.Report.Verdict != verify.Valid {
			t.Fatalf("clean rerun: plan %s is %s, want valid", a.Plan, a.Report.Verdict)
		}
	}
	after := disk.Stats().PerKind[store.KindPlanReport]
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; misses != 1 || hits != uint64(w.PlanCount-1) {
		t.Fatalf("clean rerun: %d plan hits, %d misses; want %d hits, exactly 1 miss",
			hits, misses, w.PlanCount-1)
	}
}

// TestFaultInjectionPanicKeyed: poisoning one specific plan key fails
// exactly that plan — the repro bundle names it.
func TestFaultInjectionPanicKeyed(t *testing.T) {
	w := benchgen.Chained(3, 2)
	all, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, plans.Options{PruneNonCompliant: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := all[3].Plan.Key()
	restore := faultinject.Set(faultinject.PanicOnce(faultinject.PlansWorker, victim, "keyed fault"))
	defer restore()
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, plans.Options{
		PruneNonCompliant: true, Workers: 4,
	})
	var ie *budget.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *budget.InternalError", err)
	}
	if !strings.Contains(ie.Unit, victim) {
		t.Fatalf("repro unit = %q, want the poisoned plan key %q", ie.Unit, victim)
	}
	for _, a := range as {
		want := verify.Valid
		if a.Plan.Key() == victim {
			want = verify.Unknown
		}
		if a.Report.Verdict != want {
			t.Fatalf("plan %s: verdict %s, want %s", a.Plan, a.Report.Verdict, want)
		}
	}
}

// TestAssessStreamCancelDrains is the acceptance run: Chained(14,2) has
// 16384 plans, far more than 100ms of work, and a cancellation mid-stream
// must drain promptly — verdicts flushed before the cutoff stand, nothing
// after the cutoff claims Valid spuriously (the workload is all-valid, so
// every flushed verdict must be Valid or Unknown), and no goroutine leaks.
func TestAssessStreamCancelDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation soak is not -short")
	}
	before := runtime.NumGoroutine()
	w := benchgen.Chained(14, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := budget.New(ctx, budget.Limits{})
	// Delay each plan while the budget still holds, so the cancellation
	// is guaranteed to land mid-stream; once it lands the hook goes
	// silent and the drain runs at full speed — which is exactly what the
	// test times.
	restore := faultinject.Set(func(p faultinject.Point, unit string) {
		if p == faultinject.PlansWorker && b.Exhausted() == nil {
			time.Sleep(500 * time.Microsecond)
		}
	})
	defer restore()
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	seen, valid, unknown := 0, 0, 0
	err := plans.AssessStream(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Workers: 4, Budget: b},
		func(a plans.Assessment) error {
			seen++
			switch a.Report.Verdict {
			case verify.Valid:
				valid++
			case verify.Unknown:
				unknown++
			default:
				t.Errorf("plan %s: verdict %s on an all-valid workload", a.Plan, a.Report.Verdict)
			}
			return nil
		})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled stream must return nil (partial results), got %v", err)
	}
	e := b.Exhausted()
	if e == nil || e.Reason != budget.Cancelled {
		t.Fatalf("budget must report the cancellation, got %v", e)
	}
	if unknown == 0 {
		t.Fatal("the cut must have left some verdicts undecided (unknown)")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancelled after 100ms but stream drained in %v", elapsed)
	}
	t.Logf("drained after %v: %d flushed (%d valid, %d unknown) of %d plans",
		elapsed, seen, valid, unknown, w.PlanCount)

	// Goroutine-leak check: the worker fleet must be gone. Allow the
	// runtime a moment to park exiting goroutines.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if i > 50 {
			t.Fatalf("goroutine leak: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAssessAllDeadline: a wall-clock budget cuts a large synthesis short
// with partial, sound results and the deadline reason.
func TestAssessAllDeadline(t *testing.T) {
	w := benchgen.Chained(12, 2)
	b := budget.New(context.Background(), budget.Limits{Timeout: 50 * time.Millisecond})
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, plans.Options{
		PruneNonCompliant: true, Workers: 4, Budget: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := b.Exhausted()
	if e == nil {
		t.Skip("machine finished Chained(12,2) inside 50ms; nothing to observe")
	}
	if e.Reason != budget.DeadlineExceeded {
		t.Fatalf("reason = %v, want DeadlineExceeded", e.Reason)
	}
	for _, a := range as {
		if v := a.Report.Verdict; v != verify.Valid && v != verify.Unknown {
			t.Fatalf("plan %s: verdict %s on an all-valid workload", a.Plan, v)
		}
	}
}
