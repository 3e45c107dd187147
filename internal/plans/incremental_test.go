package plans_test

import (
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/plans"
	"susc/internal/store"
	"susc/internal/verify"
)

// render flattens assessments into comparable strings: the plan key plus
// the report's full JSON wire form. Fresh and store-decoded reports differ
// internally (live trace entries vs labels), so equality is defined — as
// everywhere in the CLI — over the rendered output.
func render(t *testing.T, as []plans.Assessment) []string {
	t.Helper()
	out := make([]string, len(as))
	for i, a := range as {
		j, err := json.Marshal(a.Report)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a.Plan.Key() + " " + a.Report.String() + " " + string(j)
	}
	return out
}

func assertSameAssessments(t *testing.T, label string, got, want []plans.Assessment) {
	t.Helper()
	g, w := render(t, got), render(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d assessments, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: assessment %d:\ngot  %s\nwant %s", label, i, g[i], w[i])
		}
	}
}

// TestIncrementalWarmStoreMatches: with a store attached, AssessAll's
// verdicts are identical to the storeless run — cold (computing and
// persisting) and warm (replaying every plan from disk with zero
// exploration).
func TestIncrementalWarmStoreMatches(t *testing.T) {
	w := benchgen.Chained(3, 2)
	opts := plans.Options{PruneNonCompliant: true}
	baseline, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "susc.store")
	s1, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	cold := memo.New()
	cold.AttachDisk(s1)
	coldAs, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssessments(t, "cold", coldAs, baseline)
	if wb := s1.Stats().PerKind[store.KindPlanReport].Writebacks; wb != uint64(len(baseline)) {
		t.Fatalf("cold run wrote back %d plan reports, want %d", wb, len(baseline))
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm := memo.New()
	warm.AttachDisk(s2)
	warmAs, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssessments(t, "warm", warmAs, baseline)
	st := s2.Stats().PerKind[store.KindPlanReport]
	if st.Misses != 0 || st.Hits != uint64(len(baseline)) {
		t.Fatalf("warm run: %d hits, %d misses; want %d hits, 0 misses",
			st.Hits, st.Misses, len(baseline))
	}
	if s2.Stats().Writebacks() != 0 {
		t.Fatal("warm run wrote back; the store was already complete")
	}
}

// TestIncrementalEditRecomputesOnlyMisses is the incremental headline:
// after a one-declaration edit, AssessAll recomputes exactly the plans
// whose dependency cone contains the edited service — counted by store
// misses AND by write-backs (each recomputed cone writes back once) — and
// replays everything else from the store, with output identical to a
// storeless run of the edited repository. The rows cover a small and a
// large miss fraction, sequential and with a worker fleet.
func TestIncrementalEditRecomputesOnlyMisses(t *testing.T) {
	cases := []struct {
		name          string
		depth, fanout int
		workers       int
		target        hexpr.Location
	}{
		// 16 plans; editing one leaf invalidates the 4 binding r2 → s2_3.
		{"quarter", 2, 4, 4, "s2_3"},
		// 4 plans; editing one leaf invalidates the 2 binding r2 → s2_1.
		{"half", 2, 2, 0, "s2_1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := benchgen.Chained(tc.depth, tc.fanout)
			opts := plans.Options{PruneNonCompliant: true, Workers: tc.workers}

			path := filepath.Join(t.TempDir(), "susc.store")
			s1, err := store.Open(path, hash.Fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			cold := memo.New()
			cold.AttachDisk(s1)
			coldOpts := opts
			coldOpts.Cache = cold
			coldAs, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, coldOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(coldAs) != w.PlanCount {
				t.Fatalf("cold: %d plans, want %d", len(coldAs), w.PlanCount)
			}
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}

			// The edit: an extra internal event at the head of a leaf
			// service. Communication behaviour is unchanged, so every
			// verdict stays Valid — only the cones move.
			edited := network.Repository{}
			for l, e := range w.Repo {
				edited[l] = e
			}
			edited[tc.target] = hexpr.Cat(hexpr.Act(hexpr.E("tweak")), w.Repo[tc.target])

			baseline, err := plans.AssessAll(edited, w.Table, w.Loc, w.Client, opts)
			if err != nil {
				t.Fatal(err)
			}

			s2, err := store.Open(path, hash.Fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			warm := memo.New()
			warm.AttachDisk(s2)
			warmOpts := opts
			warmOpts.Cache = warm
			got, err := plans.AssessAll(edited, w.Table, w.Loc, w.Client, warmOpts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAssessments(t, "after edit", got, baseline)

			st := s2.Stats().PerKind[store.KindPlanReport]
			wantMisses := uint64(w.PlanCount / tc.fanout) // plans binding the edited leaf
			if st.Misses != wantMisses {
				t.Fatalf("edit invalidated %d plans, want exactly %d (the cone of %s)",
					st.Misses, wantMisses, tc.target)
			}
			if st.Hits != uint64(w.PlanCount)-wantMisses {
				t.Fatalf("replayed %d plans, want %d", st.Hits, uint64(w.PlanCount)-wantMisses)
			}
			if st.Writebacks != wantMisses {
				t.Fatalf("recomputed (wrote back) %d plans, want exactly %d", st.Writebacks, wantMisses)
			}
		})
	}
}

// TestEngineParityWithStore is the acceptance gate: both engines
// produce byte-identical rendered verdicts with the store disabled,
// enabled-cold, enabled-warm and after an edit. The paper world exercises
// every verdict class (valid, non-compliant, security violation); the edit
// raises hotel s4's rating to 100, which turns the plan r3 → s4 from a
// security violation into a valid plan, so the edited phase replays the
// hits and recomputes misses of more than one verdict class.
func TestEngineParityWithStore(t *testing.T) {
	repo := paperex.Repository()
	table := paperex.Policies()
	client, loc := paperex.C1(), paperex.LocC1

	baseline, err := plans.AssessAll(repo, table, loc, client,
		plans.Options{PruneNonCompliant: false})
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, baseline)

	edited := paperex.Repository()
	edited[paperex.LocS4] = hexpr.Cat(
		hexpr.Act(hexpr.E(paperex.EvSgn, hexpr.Sym("s4"))),
		hexpr.Act(hexpr.E(paperex.EvPrice, hexpr.Int(50))),
		hexpr.Act(hexpr.E(paperex.EvRating, hexpr.Int(100))),
		hexpr.RecvThen("IdC", hexpr.IntCh(
			hexpr.B(hexpr.Out("Bok"), hexpr.Eps()),
			hexpr.B(hexpr.Out("UnA"), hexpr.Eps()))),
	)
	editedBaseline, err := plans.AssessAll(edited, table, loc, client,
		plans.Options{PruneNonCompliant: false})
	if err != nil {
		t.Fatal(err)
	}
	wantEdited := render(t, editedBaseline)
	if slices.Equal(want, wantEdited) {
		t.Fatal("the edit changed no verdict; the edited phase would test nothing")
	}

	engines := []struct {
		name string
		e    plans.Engine
	}{
		{"legacy", plans.EngineLegacy},
		{"fused", plans.EngineFused},
	}
	for _, eng := range engines {
		// Disabled: no store at all.
		as, err := plans.AssessAll(repo, table, loc, client,
			plans.Options{Engine: eng.e})
		if err != nil {
			t.Fatal(err)
		}
		compareRendered(t, eng.name+"/disabled", render(t, as), want)

		// Enabled-cold, enabled-warm and edited share one store.
		s, err := store.Open(filepath.Join(t.TempDir(), "susc.store"), hash.Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		phases := []struct {
			name string
			repo network.Repository
			want []string
		}{
			{"cold", repo, want},
			{"warm", repo, want},
			{"edited", edited, wantEdited},
		}
		for _, ph := range phases {
			before := s.Stats().PerKind[store.KindPlanReport]
			cache := memo.New()
			cache.AttachDisk(s)
			as, err := plans.AssessAll(ph.repo, table, loc, client,
				plans.Options{Engine: eng.e, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			compareRendered(t, eng.name+"/"+ph.name, render(t, as), ph.want)
			if ph.name != "edited" {
				continue
			}
			after := s.Stats().PerKind[store.KindPlanReport]
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			if hits == 0 || misses == 0 || hits+misses != uint64(len(as)) {
				t.Errorf("%s/edited: %d plan hits, %d misses over %d plans; want both replayed and recomputed plans",
					eng.name, hits, misses, len(as))
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func compareRendered(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d assessments, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: assessment %d:\ngot  %s\nwant %s", label, i, got[i], want[i])
		}
	}
}

// TestIncrementalNeverPersistsUnknown: a budget cutoff mid-assessment
// leaves only decided verdicts on disk; entries equal write-backs, and a
// later unconstrained warm run completes the store.
func TestIncrementalNeverPersistsUnknown(t *testing.T) {
	w := benchgen.Chained(3, 2)
	s, err := store.Open(filepath.Join(t.TempDir(), "susc.store"), hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cache := memo.New()
	cache.AttachDisk(s)
	b := budget.New(context.Background(), budget.Limits{MaxStates: 40})
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: cache, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	unknown := 0
	for _, a := range as {
		if a.Report.Verdict == verify.Unknown {
			unknown++
		}
	}
	if unknown == 0 {
		t.Skip("budget did not bite; nothing to assert")
	}
	st := s.Stats().PerKind[store.KindPlanReport]
	if st.Entries != uint64(len(as)-unknown) {
		t.Fatalf("store holds %d plan entries, want %d (the decided verdicts only)",
			st.Entries, len(as)-unknown)
	}

	free := memo.New()
	free.AttachDisk(s)
	full, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: free})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range full {
		if a.Report.Verdict == verify.Unknown {
			t.Fatalf("unconstrained run still unknown for %s", a.Plan)
		}
	}
	if got := s.Stats().PerKind[store.KindPlanReport].Entries; got != uint64(len(full)) {
		t.Fatalf("store holds %d entries after completion, want %d", got, len(full))
	}
}
