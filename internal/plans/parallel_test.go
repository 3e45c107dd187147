package plans_test

import (
	"encoding/json"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/memo"
	"susc/internal/plans"
)

// TestAssessAllWorkersDeterministic: a caller-supplied memo cache must be
// invisible in the output — AssessAll with a fresh cache per call and with
// one shared cache yields byte-identical assessments, and the shared cache
// serves a second, identical run from its entries.
func TestAssessAllWorkersDeterministic(t *testing.T) {
	w := benchgen.Hotels(12)
	marshal := func(cache *memo.Cache) []byte {
		t.Helper()
		as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
			plans.Options{PruneNonCompliant: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if len(as) == 0 {
			t.Fatal("no assessments")
		}
		type entry struct {
			Plan   string
			Report string
		}
		out := make([]entry, len(as))
		for i, a := range as {
			out[i] = entry{Plan: a.Plan.Key(), Report: a.Report.String()}
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh := marshal(nil)
	cache := memo.New()
	if got := marshal(cache); string(got) != string(fresh) {
		t.Fatalf("shared cache diverges from a fresh one:\n%s\nvs\n%s", got, fresh)
	}
	// a shared cache must also be reusable for a second, identical run
	if again := marshal(cache); string(again) != string(fresh) {
		t.Fatalf("warm-cache rerun diverges:\n%s", again)
	}
	if cache.Stats().Hits() == 0 {
		t.Fatal("warm rerun produced no cache hits")
	}
}
