package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var suscBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	suscBin = filepath.Join(dir, "susc")
	if out, err := exec.Command("go", "build", "-o", suscBin, "susc/cmd/susc").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building susc: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, workload string) config {
	t.Helper()
	return config{susc: suscBin, out: t.TempDir(), workload: workload, seed: 1, seconds: time.Second}
}

// TestDeterministicCounts runs each workload's traced run twice and holds
// every metric in deterministicCounts equal across the runs; on
// Chained(12,2) the fused-engine counts must match the recorded series.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take tens of seconds")
	}
	pinned := map[string]map[string]float64{
		"plan-family": {
			"plans.assessed":        4096,
			"plans.states_expanded": 36856,
			"plans.edges_built":     40950,
			"plans.replay_states":   249856,
			"audit.plans_audited":   256, // the audit op flow-analyzes the capped family
			"valid.flow_calls":      256,
		},
	}
	for _, w := range []string{"plan-family", "serve-mix"} {
		t.Run(w, func(t *testing.T) {
			var runs []metrics
			for i := 0; i < 2; i++ {
				ck := &checker{}
				m, err := workloads[w].traced(testConfig(t, w), ck)
				if err != nil {
					t.Fatal(err)
				}
				if ck.failed != 0 || ck.attempted == 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, ck.failed, ck.attempted, ck.first)
				}
				runs = append(runs, m)
			}
			for _, name := range deterministicCounts(runs[0]) {
				a, ok := runs[0][name]
				if !ok {
					t.Errorf("%s: not reported", name)
					continue
				}
				if b := runs[1][name]; a.Value != b.Value {
					t.Errorf("%s: %v then %v, want equal", name, a.Value, b.Value)
				}
			}
			for name, want := range pinned[w] {
				if got := runs[0][name].Value; got != want {
					t.Errorf("%s = %v, want %v", name, got, want)
				}
			}
		})
	}
}

// TestWrongAnswerCounted feeds real outputs to the checks with a
// deliberately wrong expected answer: each must count as a failure.
func TestWrongAnswerCounted(t *testing.T) {
	ck := &checker{}
	dir := t.TempDir()
	cfg := testConfig(t, "plan-family")

	// A CLI output: the 4096 valid plans of Chained(12,2), expected as 4095.
	in, err := writeInputs(dir, func() (string, string, error) { return planFamilySources(1) })
	if err != nil {
		t.Fatal(err)
	}
	inv, err := runSusc(cfg, dir, "plans", in.base, "-json")
	if err != nil {
		t.Fatal(err)
	}
	if p := checkFamilyPlans(inv); p != "" {
		t.Fatalf("the right answer failed: %s", p)
	}
	ck.check("plans, wrong count", checkPlanArray(inv.stdout, familyPlans-1))

	// The store-edit check, expecting the edit to recompute no verdict:
	// the cold and warm passes pass, the edit pass fails.
	wrong := map[string][2]int{passCold: clientsWant[passCold], passWarm: clientsWant[passWarm], passEdit: {clientsCount, 0}}
	if err := checkClientsEdit(cfg, dir, 1, ck, wrong); err != nil {
		t.Fatal(err)
	}

	// A served answer: a valid client's check, expected as a violation.
	env, err := bootServer(1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	s, j := env.pool[0].validClient()
	r := hotelsRequest(classCold, "check", s, j)
	r.query.Set("client", s.client(j))
	resp, err := post(http.DefaultClient, env.base, r)
	if err != nil {
		t.Fatal(err)
	}
	if p := expectSingle(resp, []string{"valid"}, 0); p != "" {
		t.Fatalf("the right answer failed: %s", p)
	}
	ck.check("check, wrong verdict", expectSingle(resp, []string{"security-violation"}, 1))
	ck.check("check, wrong exit", expectSingle(resp, []string{"valid"}, 3))

	if ck.attempted != 6 || ck.failed != 4 {
		t.Fatalf("%d of %d checks failed, want the 4 wrong answers of 6", ck.failed, ck.attempted)
	}
}

// TestClientsEdit: on ChainedClients(8,4,24) the edit of client 0's
// divergent service recomputes exactly one plan verdict.
func TestClientsEdit(t *testing.T) {
	ck := &checker{}
	if err := checkClientsEdit(testConfig(t, "plan-family"), t.TempDir(), 1, ck, clientsWant); err != nil {
		t.Fatal(err)
	}
	if ck.attempted != 3 || ck.failed != 0 {
		t.Fatalf("%d of %d passes failed: %v", ck.failed, ck.attempted, ck.first)
	}
}
