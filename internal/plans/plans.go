// Package plans extracts viable orchestrations: it enumerates the plans of
// a client against a repository — lazily discovering the nested requests
// that selecting a service introduces — and filters them through the
// static checks of internal/verify, keeping exactly the *valid* plans of
// §2/§5: those driving computations that neither violate security nor get
// stuck on a missing communication. Adopting a synthesized plan lets the
// network run with no run-time monitor.
package plans

import (
	"errors"
	"fmt"
	"sort"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/store"
	"susc/internal/verify"
)

// Options tunes synthesis.
type Options struct {
	// PruneNonCompliant rejects a binding as soon as the product automaton
	// of the request body and the candidate service is non-empty, instead
	// of completing the plan and validating it whole. Sound (compliance is
	// per-request) and usually much faster; the ablation benchmark
	// measures the difference.
	PruneNonCompliant bool
	// MaxPlans bounds the number of complete plans examined (0 = no
	// bound). Synthesis fails with an error when the bound is hit.
	MaxPlans int
	// Workers is ignored: both engines assess plans on the calling
	// goroutine, whatever its value.
	Workers int
	// Cache memoises compliance verdicts, product automata and one-step
	// transition sets across the whole synthesis: the enumeration probe
	// (PruneNonCompliant) and the validation of every candidate plan
	// share it, so per-pair work is done once instead of once per plan.
	// Nil builds a fresh cache for the call; supply one to share it
	// across calls (e.g. repeated synthesis over the same repository).
	Cache *memo.Cache
	// Engine selects the synthesis strategy: EngineFused (default)
	// validates every plan against one shared state graph, EngineLegacy
	// explores each plan independently. Both produce identical output.
	Engine Engine
	// Stats, when non-nil, receives the fused engine's work counters
	// (EngineFused only).
	Stats *FusedStats
	// MemoryTierOnly keeps per-plan verdicts out of the persistent store
	// even when the cache has one attached. Analyzer sweeps (the lint
	// plan-space emptiness check) assess whole plan families as an
	// existence probe; persisting fanout^depth sweep verdicts would bloat
	// the store and muddy the per-plan hit/miss counters the CLI stats and
	// CI gates key on. The compliance and LTS tiers underneath still use
	// the disk — those are shared with real verification runs.
	MemoryTierOnly bool
	// Budget meters the whole synthesis (nil = unbounded): enumeration,
	// graph expansion and every plan's exploration charge the same
	// budget. Exhaustion or cancellation degrades gracefully — plans
	// whose verdict was decided before the cutoff keep it, the rest are
	// reported Unknown — and AssessAll/AssessStream return nil: query
	// Budget.Exhausted() to learn the run was cut short.
	Budget *budget.Budget
}

// Assessment is a complete plan together with its verdict.
type Assessment struct {
	Plan   network.Plan
	Report *verify.Report
}

func (a Assessment) String() string {
	return fmt.Sprintf("%s: %s", a.Plan, a.Report)
}

// AssessAll enumerates every complete plan for the client and validates
// each, returning the assessments in deterministic order (lexicographic in
// the plan keys). The work runs on the engine opts.Engine selects; the
// result does not depend on the choice.
//
// With a persistent store attached to opts.Cache (and MemoryTierOnly
// unset), the fused engine probes the store for every plan's cone hash
// and decodes the hits; only the misses are replayed, and their decided
// verdicts are written back. On an unchanged repository every probe hits
// and no plan is explored; after an edit, the misses are exactly the
// plans whose dependency cone contains the edited declaration. Unknown
// verdicts describe this run's limits, not the cone, and are never
// persisted.
func AssessAll(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]Assessment, error) {

	if opts.Engine == EngineLegacy {
		// The legacy engine validates plans through CheckPlanOpts, which
		// carries its own persistent tier when the cache has a store
		// attached.
		return assessAllLegacy(repo, table, loc, client, opts)
	}
	eng := newFusedEngine(repo, table, loc, client, opts)
	complete, vecs, err := eng.enumerate()
	if err != nil {
		return nil, err
	}
	out := make([]Assessment, len(complete))
	var disk *store.Store
	if !opts.MemoryTierOnly {
		disk = eng.cache.Disk()
	}
	// Without a store every plan is a miss. With one, probe the store once
	// per plan: plan assessment is capacity-free (capacities are a
	// whole-network concern), so the cone key carries no capacity
	// component. missIdx maps the misses back to their positions in
	// complete; nil stands for all of them, in order.
	missIdx, missPlans, missVecs := []int(nil), complete, vecs
	var sums []hash.Sum
	if disk != nil {
		sums = make([]hash.Sum, len(complete))
		missPlans, missVecs = nil, nil
		for i, plan := range complete {
			sum, err := verify.PlanKey(repo, table, loc, client, plan, nil)
			if err != nil {
				return nil, err
			}
			sums[i] = sum
			if raw, ok := disk.Get(store.KindPlanReport, sum); ok {
				if r, derr := verify.DecodeReport(raw); derr == nil {
					out[i] = Assessment{Plan: plan, Report: r}
					continue
				}
			}
			missIdx = append(missIdx, i)
			missPlans = append(missPlans, plan)
			missVecs = append(missVecs, vecs[i])
		}
	}
	next := 0
	err = eng.run(missPlans, missVecs, func(a Assessment) error {
		i := next
		if missIdx != nil {
			i = missIdx[next]
		}
		next++
		out[i] = a
		if disk == nil || a.Report.Verdict == verify.Unknown {
			return nil
		}
		enc, err := verify.EncodeReport(a.Report)
		if err != nil {
			return err
		}
		return disk.Put(store.KindPlanReport, sums[i], enc)
	})
	if err != nil && !errors.As(err, new(*budget.InternalError)) {
		return nil, err
	}
	sort.Sort(&byKey{keys: eng.planKeys(vecs), out: out})
	// An internal error (isolated per-plan panic) is returned alongside the
	// assessments: the poisoned plan is Unknown, the rest are intact.
	return out, err
}

// assessAllLegacy is the one-exploration-per-plan strategy: enumerate
// every complete plan, then verify each independently.
func assessAllLegacy(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]Assessment, error) {

	cache := opts.Cache
	if cache == nil {
		cache = memo.New()
	}
	complete, err := enumerate(repo, client, opts, cache)
	if err != nil {
		return nil, err
	}
	vopts := verify.Options{Cache: cache, Budget: opts.Budget,
		SkipDiskProbe: opts.MemoryTierOnly}
	// Each plan is checked inside a panic guard: a panic becomes a typed
	// *budget.InternalError carrying the plan key as a repro bundle, that
	// plan's verdict degrades to Unknown, and the remaining plans are
	// still checked; the first such error is returned alongside the
	// assessments. Any other error aborts the call.
	out := make([]Assessment, len(complete))
	// Plan.Key() rebuilds its string per call: computed once per plan, the
	// key serves the guard, the fault hook and the sort.
	keys := make([]string, len(complete))
	var firstInternal *budget.InternalError
	for i, plan := range complete {
		key := plan.Key()
		keys[i] = key
		var report *verify.Report
		err := budget.Guard("plan "+key, func() error {
			if faultinject.Enabled() {
				faultinject.Fire(faultinject.PlansWorker, key)
			}
			var err error
			report, err = verify.CheckPlanOpts(repo, table, loc, client, plan, vopts)
			return err
		})
		if err != nil {
			var ie *budget.InternalError
			if !errors.As(err, &ie) {
				return nil, err
			}
			if firstInternal == nil {
				firstInternal = ie
			}
			report = &verify.Report{Verdict: verify.Unknown, Reason: ie.Error()}
		}
		out[i] = Assessment{Plan: plan, Report: report}
	}
	sort.Sort(&byKey{keys: keys, out: out})
	if firstInternal != nil {
		return out, firstInternal
	}
	return out, nil
}

type byKey struct {
	keys []string
	out  []Assessment
}

func (s *byKey) Len() int           { return len(s.out) }
func (s *byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.out[i], s.out[j] = s.out[j], s.out[i]
}

// Synthesize returns exactly the valid plans for the client, in
// deterministic order.
func Synthesize(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]network.Plan, error) {

	assessments, err := AssessAll(repo, table, loc, client, opts)
	if err != nil {
		return nil, err
	}
	var out []network.Plan
	for _, a := range assessments {
		if a.Report.Verdict == verify.Valid {
			out = append(out, a.Plan)
		}
	}
	return out, nil
}

// errStopEnumeration is the internal sentinel unwinding the enumeration
// recursion when the budget runs out: the plans discovered so far are
// returned with a nil error, and assessment degrades them to Unknown.
var errStopEnumeration = errors.New("plans: enumeration stopped by budget")

// enumerate produces every complete binding of the requests reachable
// under the binding itself (selecting a service adds its requests). The
// PruneNonCompliant probe decides compliance through the shared cache:
// backtracking re-asks the same (body, service) pair on every branch, and
// the memoised verdict turns the repeats into lookups.
func enumerate(repo network.Repository, client hexpr.Expr, opts Options, cache *memo.Cache) ([]network.Plan, error) {
	locations := repo.Locations()
	var out []network.Plan
	var expand func(plan network.Plan, pending []pendingReq) error
	expand = func(plan network.Plan, pending []pendingReq) error {
		// drop already-bound requests (cycles in the service graph)
		for len(pending) > 0 {
			if _, ok := plan[pending[0].req]; ok {
				pending = pending[1:]
				continue
			}
			break
		}
		if len(pending) == 0 {
			if opts.MaxPlans > 0 && len(out) >= opts.MaxPlans {
				return fmt.Errorf("plans: more than %d complete plans", opts.MaxPlans)
			}
			if opts.Budget.Exhausted() != nil {
				return errStopEnumeration
			}
			out = append(out, plan.Clone())
			return nil
		}
		head, rest := pending[0], pending[1:]
		for _, l := range locations {
			service := repo[l]
			if opts.PruneNonCompliant {
				ok, err := cache.Compliant(head.body, service)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			plan[head.req] = l
			newPending := append(append([]pendingReq(nil), rest...), requestsOf(service)...)
			if err := expand(plan, newPending); err != nil {
				return err
			}
			delete(plan, head.req)
		}
		return nil
	}
	if err := expand(network.Plan{}, requestsOf(client)); err != nil && err != errStopEnumeration {
		return nil, err
	}
	return out, nil
}

type pendingReq struct {
	req  hexpr.RequestID
	body hexpr.Expr
}

func requestsOf(e hexpr.Expr) []pendingReq {
	var out []pendingReq
	hexpr.Walk(e, func(x hexpr.Expr) {
		if s, ok := x.(hexpr.Session); ok {
			out = append(out, pendingReq{req: s.Req, body: s.Body})
		}
	})
	return out
}
