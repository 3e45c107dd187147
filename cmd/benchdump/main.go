// Command benchdump runs the plan-synthesis benchmarks in-process via
// testing.Benchmark and emits one machine-readable JSON document, so CI
// and developers can archive comparable baselines (BENCH_baseline.json at
// the repository root) without scraping `go test -bench` output.
//
//	benchdump [-hotels N] [-chained-depth D] [-chained-fanout F] [-cpuprofile FILE] [-o FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"susc/internal/benchgen"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/lint"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/plans"
	"susc/internal/store"
	"susc/internal/verify"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// HitRate is the memo-cache hit rate over the whole benchmark run
	// (cached variants only).
	HitRate float64 `json:"hit_rate,omitempty"`
}

type document struct {
	GoVersion string `json:"go_version"`
	GoArch    string `json:"go_arch"`
	Hotels    int    `json:"hotels"`
	// Chained compares the legacy per-plan engine against the fused
	// shared-state-space engine on the benchgen.Chained workload.
	Chained *chainedDoc `json:"chained,omitempty"`
	// LintSemantic measures the semantic analyzer suite (SUSC011–015,
	// witness extraction included) over the surface rendering of a
	// Chained workload.
	LintSemantic *lintDoc `json:"lint_semantic,omitempty"`
	// Incremental measures verification through the persistent verdict
	// store: a cold run populating it, a warm run replaying every verdict,
	// and a run after a one-declaration edit recomputing only the edited
	// cone.
	Incremental *incrementalDoc `json:"incremental,omitempty"`
	// Audit measures the whole-network flow audit (`susc audit`) over the
	// Chained workload: one cold pass through a fresh memo cache and the
	// best warm pass reusing it.
	Audit   *auditDoc `json:"audit,omitempty"`
	Results []result  `json:"results"`
}

// auditDoc is the flow-audit series. HitRate is the memo-cache hit rate
// of the cold pass alone — the PR 9 gate (≥90% on Chained(12,2))
// measures intra-run sharing across the audited plan family, not
// warm-cache replay.
type auditDoc struct {
	Depth       int     `json:"depth"`
	Fanout      int     `json:"fanout"`
	ValidPlans  int     `json:"valid_plans"`
	Audited     int     `json:"audited"`
	SourceBytes int     `json:"source_bytes"`
	ColdNs      float64 `json:"cold_ns"`
	WarmNs      float64 `json:"warm_ns"`
	WarmSpeedup float64 `json:"warm_speedup"`
	HitRate     float64 `json:"hit_rate"`
	Findings    int     `json:"findings"`
}

// incrementalDoc is the persistent-store series: the many-client
// ChainedClients surface (the CI incremental-smoke workload) and the
// single-client Hotels plan family.
type incrementalDoc struct {
	Depth   int `json:"depth"`
	Fanout  int `json:"fanout"`
	Clients int `json:"clients"`
	// Nanoseconds per full verification pass (store open + every client),
	// one-shot measurements of the user-visible `checkall -cache` path.
	ColdNs float64 `json:"cold_ns"`
	WarmNs float64 `json:"warm_ns"`
	EditNs float64 `json:"edit_ns"`
	// WarmSpeedup is ColdNs/WarmNs — the headline of the store.
	WarmSpeedup float64 `json:"warm_speedup"`
	WarmHitRate float64 `json:"warm_hit_rate"`
	// EditRecomputed counts the plan verdicts recomputed after editing one
	// divergent service; EditFraction is its share of the client count.
	EditRecomputed uint64  `json:"edit_recomputed"`
	EditFraction   float64 `json:"edit_fraction"`
	StoreBytes     uint64  `json:"store_bytes"`
	// Hotels is the same cold/warm/edit triple over the Hotels plan
	// family assessed with plans.AssessAll.
	Hotels *hotelsIncDoc `json:"hotels,omitempty"`
}

type hotelsIncDoc struct {
	Hotels         int     `json:"hotels"`
	Plans          int     `json:"plans"`
	ColdNs         float64 `json:"cold_ns"`
	WarmNs         float64 `json:"warm_ns"`
	EditNs         float64 `json:"edit_ns"`
	WarmSpeedup    float64 `json:"warm_speedup"`
	EditRecomputed uint64  `json:"edit_recomputed"`
	EditFraction   float64 `json:"edit_fraction"`
}

// lintDoc summarizes the semantic-lint series: the dominant cost is
// SUSC013's plan-space emptiness check, which explores the full
// fanout^depth plan family through the fused engine and memo cache.
type lintDoc struct {
	Depth       int     `json:"depth"`
	Fanout      int     `json:"fanout"`
	Plans       int     `json:"plans"`
	SourceBytes int     `json:"source_bytes"`
	HitRate     float64 `json:"hit_rate"`
}

// chainedDoc is the engine comparison on one Chained workload: the
// headline claim of the shared-graph engine (BENCH_pr2.json archives the
// legacy-vs-fused pair; BENCH_pr6.json adds the compiled engine).
type chainedDoc struct {
	Depth   int     `json:"depth"`
	Fanout  int     `json:"fanout"`
	Plans   int     `json:"plans"`
	Speedup float64 `json:"speedup"` // legacy ns_per_op / current-engine ns_per_op
	// Fused-engine work counters from the last fused iteration.
	StatesExpanded uint64 `json:"states_expanded"`
	EdgesBuilt     uint64 `json:"edges_built"`
	ReplayStates   uint64 `json:"replay_states"`
	ReplayMemoHits uint64 `json:"replay_memo_hits"`
}

func main() {
	hotels := flag.Int("hotels", 32, "size of the benchgen.Hotels workload")
	depth := flag.Int("chained-depth", 12, "depth of the benchgen.Chained workload (0 skips it)")
	fanout := flag.Int("chained-fanout", 2, "fanout of the benchgen.Chained workload")
	lintDepth := flag.Int("lint-semantic", 8, "depth of the Chained workload for the semantic-lint series (0 skips it; keep fanout^depth within the analyzers' plan budget)")
	out := flag.String("o", "", "write the JSON document here instead of stdout")
	chainedSrc := flag.Bool("chained-src", false, "print the surface-syntax source of the Chained workload and exit (no benchmarks); for budget/timeout smoke tests")
	chainedClients := flag.Int("chained-clients", 0, "with -chained-src: emit the ChainedClients workload with this many planned clients instead (the incremental-smoke surface)")
	incremental := flag.Int("incremental", 0, "run the incremental-verification series (cold/warm/single-edit through a persistent store) with this many planned clients (0 skips it)")
	audit := flag.Bool("audit", false, "run the flow-audit series (cold/warm `susc audit` over the Chained workload, memo hit rate included)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the benchmarks) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdump:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchdump:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdump:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchdump:", err)
			os.Exit(1)
		}
	}()

	if *chainedSrc {
		src := benchgen.ChainedSource(*depth, *fanout)
		if *chainedClients > 0 {
			src = benchgen.ChainedClientsSource(*depth, *fanout, *chainedClients)
		}
		if *out != "" {
			if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		fmt.Print(src)
		return
	}

	w := benchgen.Hotels(*hotels)
	run := func(workers int, cache *memo.Cache) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
					plans.Options{PruneNonCompliant: true, Workers: workers, Cache: cache})
				if err != nil {
					b.Fatal(err)
				}
				if len(as) == 0 {
					b.Fatal("no plans")
				}
			}
		})
	}

	doc := document{GoVersion: runtime.Version(), GoArch: runtime.GOARCH, Hotels: *hotels}
	for _, workers := range []int{1, 4} {
		r := run(workers, nil)
		doc.Results = append(doc.Results, toResult(
			fmt.Sprintf("PlanSynthesisParallel/workers=%d", workers), r, 0))
	}
	cache := memo.New()
	r := run(4, cache)
	doc.Results = append(doc.Results, toResult(
		fmt.Sprintf("PlanSynthesisCached/workers=%d", 4), r, cache.Stats().HitRate()))

	if *depth > 0 {
		doc.Chained = runChained(*depth, *fanout, &doc)
	}
	if *lintDepth > 0 {
		doc.LintSemantic = runLintSemantic(*lintDepth, *fanout, &doc)
	}
	if *incremental > 0 {
		doc.Incremental = runIncremental(*depth, *fanout, *incremental, *hotels, &doc)
	}
	if *audit && *depth > 0 {
		doc.Audit = runAudit(*depth, *fanout, &doc)
	}

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdump:", err)
			os.Exit(1)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchdump:", err)
		os.Exit(1)
	}
}

// runChained benchmarks the legacy oracle against the production engine
// on one Chained workload, appends the legacy/fused pair of series to the
// document (fused = the current, compiled engine), and returns the
// comparison summary with the engine's work counters.
func runChained(depth, fanout int, doc *document) *chainedDoc {
	w := benchgen.Chained(depth, fanout)
	var stats plans.FusedStats
	run := func(engine plans.Engine, st *plans.FusedStats) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			// Level the GC before timing: the engines run back-to-back in
			// one process, and whichever series follows a big one would
			// otherwise inherit an inflated pacing goal (fewer collections
			// → flattering numbers for the later engine). A plain GC only —
			// debug.FreeOSMemory would hand the pages back and make every
			// series refault its working set, a cost that lands on whichever
			// engine allocates its arenas up front rather than on whichever
			// is slower.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st != nil {
					st.Reset()
				}
				as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
					plans.Options{PruneNonCompliant: true, Engine: engine, Stats: st})
				if err != nil {
					b.Fatal(err)
				}
				if len(as) != w.PlanCount {
					b.Fatalf("plans = %d, want %d", len(as), w.PlanCount)
				}
			}
		})
	}
	nsPerOp := func(r testing.BenchmarkResult) float64 {
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	legacy := run(plans.EngineLegacy, nil)
	compiled := run(plans.EngineFused, &stats)
	base := fmt.Sprintf("PlanSynthesisChained/depth=%d/fanout=%d", depth, fanout)
	doc.Results = append(doc.Results,
		toResult(base+"/legacy", legacy, 0),
		toResult(base+"/fused", compiled, 0))
	return &chainedDoc{
		Depth:          depth,
		Fanout:         fanout,
		Plans:          w.PlanCount,
		Speedup:        nsPerOp(legacy) / nsPerOp(compiled),
		StatesExpanded: stats.StatesExpanded.Load(),
		EdgesBuilt:     stats.EdgesBuilt.Load(),
		ReplayStates:   stats.ReplayStates.Load(),
		ReplayMemoHits: stats.ReplayMemoHits.Load(),
	}
}

// runLintSemantic benchmarks the full lint suite — default analyzers plus
// the semantic SUSC011–015 pass with witness extraction — over the surface
// rendering of a Chained workload, appends two series (syntactic-only and
// full) to the document, and returns the summary. The workload is lint-
// clean, so the run measures pure analysis: SUSC013 alone walks the whole
// fanout^depth plan space through the fused engine.
func runLintSemantic(depth, fanout int, doc *document) *lintDoc {
	src := benchgen.ChainedSource(depth, fanout)
	w := benchgen.Chained(depth, fanout)
	cache := memo.New()
	run := func(analyzers []*lint.Analyzer) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				diags := lint.Source(src, lint.Options{Analyzers: analyzers, Cache: cache})
				if len(diags) != 0 {
					b.Fatalf("chained workload is not lint-clean: %v", diags)
				}
			}
		})
	}
	base := fmt.Sprintf("LintChained/depth=%d/fanout=%d", depth, fanout)
	doc.Results = append(doc.Results,
		toResult(base+"/syntactic", run(lint.Analyzers()), 0),
		toResult(base+"/semantic", run(lint.AllAnalyzers()), cache.Stats().HitRate()))
	return &lintDoc{
		Depth:       depth,
		Fanout:      fanout,
		Plans:       w.PlanCount,
		SourceBytes: len(src),
		HitRate:     cache.Stats().HitRate(),
	}
}

// runIncremental measures the persistent-store loop end to end, the way
// `susc checkall -cache` exercises it: every pass opens the store file,
// verifies every client's declared plan through a fresh in-memory cache
// backed by the store, and closes it. Cold populates, warm replays, and
// the edit pass — one divergent service of client 0 changed — recomputes
// exactly the clients whose dependency cone contains the edit. A second
// triple covers the single-client Hotels plan family through
// plans.AssessAll's store probe and fused replay of the misses.
func runIncremental(depth, fanout, n, hotels int, doc *document) *incrementalDoc {
	dir, err := os.MkdirTemp("", "susc-benchdump-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdump:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	w := benchgen.ChainedClients(depth, fanout, n)
	path := filepath.Join(dir, "clients.store")
	pass := func(repo network.Repository) (time.Duration, store.Stats) {
		s, err := store.Open(path, hash.Fingerprint())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdump:", err)
			os.Exit(1)
		}
		cache := memo.New()
		cache.AttachDisk(s)
		start := time.Now()
		for _, c := range w.Clients {
			r, err := verify.CheckPlanOpts(repo, w.Table, c.Loc, c.Expr, c.Plan,
				verify.Options{Cache: cache})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchdump:", err)
				os.Exit(1)
			}
			if r.Verdict != verify.Valid {
				fmt.Fprintf(os.Stderr, "benchdump: client %s unexpectedly %s\n", c.Name, r.Verdict)
				os.Exit(1)
			}
		}
		d := time.Since(start)
		st := s.Stats()
		s.Close()
		return d, st
	}

	coldD, _ := pass(w.Repo)
	warmD, warmStats := pass(w.Repo)
	// Take the best of a few warm passes: the warm path is microseconds of
	// replay, where scheduler noise dominates a single measurement.
	for i := 0; i < 2; i++ {
		if d, st := pass(w.Repo); d < warmD {
			warmD, warmStats = d, st
		}
	}

	edited := network.Repository{}
	for l, e := range w.Repo {
		edited[l] = e
	}
	target := w.Divergent(0)
	edited[target] = hexpr.Cat(w.Repo[target], hexpr.Act(hexpr.E("tweak")))
	editD, editStats := pass(edited)

	inc := &incrementalDoc{
		Depth:          depth,
		Fanout:         fanout,
		Clients:        n,
		ColdNs:         float64(coldD.Nanoseconds()),
		WarmNs:         float64(warmD.Nanoseconds()),
		EditNs:         float64(editD.Nanoseconds()),
		WarmSpeedup:    float64(coldD.Nanoseconds()) / float64(warmD.Nanoseconds()),
		WarmHitRate:    warmStats.HitRate(),
		EditRecomputed: editStats.PerKind[store.KindPlanReport].Misses,
		EditFraction:   float64(editStats.PerKind[store.KindPlanReport].Misses) / float64(n),
		StoreBytes:     warmStats.Bytes(),
	}
	base := fmt.Sprintf("Incremental/chained-clients/depth=%d/fanout=%d/n=%d", depth, fanout, n)
	doc.Results = append(doc.Results,
		result{Name: base + "/cold", Iterations: 1, NsPerOp: inc.ColdNs},
		result{Name: base + "/warm", Iterations: 1, NsPerOp: inc.WarmNs, HitRate: inc.WarmHitRate},
		result{Name: base + "/edit", Iterations: 1, NsPerOp: inc.EditNs})

	hw := benchgen.Hotels(hotels)
	hpath := filepath.Join(dir, "hotels.store")
	var planCount int
	hpass := func(repo network.Repository) (time.Duration, store.Stats) {
		s, err := store.Open(hpath, hash.Fingerprint())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdump:", err)
			os.Exit(1)
		}
		cache := memo.New()
		cache.AttachDisk(s)
		start := time.Now()
		as, err := plans.AssessAll(repo, hw.Table, hw.Loc, hw.Client,
			plans.Options{PruneNonCompliant: true, Cache: cache})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdump:", err)
			os.Exit(1)
		}
		planCount = len(as)
		d := time.Since(start)
		st := s.Stats()
		s.Close()
		return d, st
	}
	hColdD, _ := hpass(hw.Repo)
	hWarmD, _ := hpass(hw.Repo)
	for i := 0; i < 2; i++ {
		if d, _ := hpass(hw.Repo); d < hWarmD {
			hWarmD = d
		}
	}
	hEdited := network.Repository{}
	for l, e := range hw.Repo {
		hEdited[l] = e
	}
	// h2 is the first valid-profile hotel: a mid-repository cone.
	hEdited["h2"] = hexpr.Cat(hw.Repo["h2"], hexpr.Act(hexpr.E("tweak")))
	hEditD, hEditStats := hpass(hEdited)

	inc.Hotels = &hotelsIncDoc{
		Hotels:         hotels,
		Plans:          planCount,
		ColdNs:         float64(hColdD.Nanoseconds()),
		WarmNs:         float64(hWarmD.Nanoseconds()),
		EditNs:         float64(hEditD.Nanoseconds()),
		WarmSpeedup:    float64(hColdD.Nanoseconds()) / float64(hWarmD.Nanoseconds()),
		EditRecomputed: hEditStats.PerKind[store.KindPlanReport].Misses,
		EditFraction:   float64(hEditStats.PerKind[store.KindPlanReport].Misses) / float64(planCount),
	}
	hbase := fmt.Sprintf("Incremental/hotels/n=%d", hotels)
	doc.Results = append(doc.Results,
		result{Name: hbase + "/cold", Iterations: 1, NsPerOp: inc.Hotels.ColdNs},
		result{Name: hbase + "/warm", Iterations: 1, NsPerOp: inc.Hotels.WarmNs},
		result{Name: hbase + "/edit", Iterations: 1, NsPerOp: inc.Hotels.EditNs})
	return inc
}

// runAudit measures the whole-network flow audit the way `susc audit`
// runs it: one cold pass — fresh memo cache, the whole (capped) valid-
// plan family flow-analyzed — and the best of a few warm passes reusing
// the cache. The cold pass's own hit rate is the headline: the audited
// plans of a Chained workload share almost all of their compliance and
// LTS sub-results, so the memo tier carries the family.
func runAudit(depth, fanout int, doc *document) *auditDoc {
	src := benchgen.ChainedSource(depth, fanout)
	cache := memo.New()
	run := func() (time.Duration, *lint.AuditResult) {
		start := time.Now()
		res := lint.AuditSource(src, lint.Options{Cache: cache})
		return time.Since(start), res
	}
	coldD, res := run()
	for _, d := range res.Diagnostics {
		if d.Code == lint.CodeInternalError {
			fmt.Fprintf(os.Stderr, "benchdump: audit internal error: %s\n", d.Message)
			os.Exit(1)
		}
	}
	coldHitRate := cache.Stats().HitRate()
	warmD, _ := run()
	for i := 0; i < 2; i++ {
		if d, _ := run(); d < warmD {
			warmD = d
		}
	}
	ad := &auditDoc{
		Depth:       depth,
		Fanout:      fanout,
		SourceBytes: len(src),
		ColdNs:      float64(coldD.Nanoseconds()),
		WarmNs:      float64(warmD.Nanoseconds()),
		WarmSpeedup: float64(coldD.Nanoseconds()) / float64(warmD.Nanoseconds()),
		HitRate:     coldHitRate,
		Findings:    len(res.Diagnostics),
	}
	for _, c := range res.Coverage {
		ad.ValidPlans += c.ValidPlans
		ad.Audited += c.Audited
	}
	base := fmt.Sprintf("Audit/chained/depth=%d/fanout=%d", depth, fanout)
	doc.Results = append(doc.Results,
		result{Name: base + "/cold", Iterations: 1, NsPerOp: ad.ColdNs, HitRate: coldHitRate},
		result{Name: base + "/warm", Iterations: 1, NsPerOp: ad.WarmNs, HitRate: cache.Stats().HitRate()})
	return ad
}

func toResult(name string, r testing.BenchmarkResult, hitRate float64) result {
	return result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		HitRate:     hitRate,
	}
}
