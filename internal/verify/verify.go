// Package verify statically validates plans: it explores exhaustively the
// (finite) state space of a client running against the repository under a
// given plan, and reports whether any reachable computation violates a
// security policy or deadlocks on a missing communication. A plan passing
// this check is *valid* in the sense of §2/§5 of the paper: the network
// needs no run-time monitor.
//
// Finiteness. A configuration is abstracted to (session-tree key, monitor
// signature): expression residuals range over the finite LTS state spaces
// (guarded tail recursion), session nesting is bounded by the static
// structure, and the monitor signature ranges over policy-automaton state
// sets and bounded activation counts — so the exploration always
// terminates.
//
// Parallel components of a network never interact (they only interleave,
// each with its own history), so validating a vector of clients reduces to
// validating each client separately; CheckClients does exactly that.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/ring"
	"susc/internal/store"
)

// Verdict classifies a plan.
type Verdict int

const (
	// Valid: every request compliant, no reachable security violation, no
	// reachable deadlock.
	Valid Verdict = iota
	// SecurityViolation: some computation would violate an active policy.
	SecurityViolation
	// NotCompliant: some request is bound to a service that is not
	// compliant with the request body — the service could commit to an
	// output the caller cannot receive. The synchronisation-based network
	// semantics is angelic and never exhibits this as a stuck run (§3), so
	// it is detected statically with the product automaton of Definition 5.
	NotCompliant
	// CommunicationDeadlock: some computation reaches a configuration that
	// is not terminated yet has no enabled move (unbound request, dangling
	// location, or a genuinely stuck interleaving).
	CommunicationDeadlock
	// UnboundedNesting: the planned service call graph is cyclic, so the
	// composed behaviour opens sessions to unbounded depth and exhaustive
	// verification is refused. The paper's framework likewise assumes
	// finitely nested compositions.
	UnboundedNesting
	// Unknown: the exploration stopped before exhausting the state space —
	// a state/edge budget ran out, a deadline passed, or the run was
	// cancelled. Unknown is sound by construction: Valid is only ever
	// claimed for fully explored spaces, and any counterexample verdict
	// reached before the cutoff is a real counterexample. Report.Reason
	// says why the exploration stopped, Report.Frontier how many
	// discovered states were still unexplored.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Valid:
		return "valid"
	case SecurityViolation:
		return "security-violation"
	case NotCompliant:
		return "not-compliant"
	case CommunicationDeadlock:
		return "communication-deadlock"
	case UnboundedNesting:
		return "unbounded-nesting"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Report is the result of validating one client under one plan.
type Report struct {
	Verdict Verdict
	// Policy is the violated policy (security verdicts only).
	Policy hexpr.PolicyID
	// Request and Witness describe the failing request (non-compliance
	// verdicts only).
	Request hexpr.RequestID
	Witness string
	// Trace drives the configuration to the offending state.
	Trace []network.TraceEntry
	// TraceLabels is the trace as rendered label strings. Freshly computed
	// reports leave it nil (labels derive from Trace on demand); reports
	// decoded from the persistent store carry only labels — every rendering
	// path goes through labels, so the two are indistinguishable in output.
	TraceLabels []string
	// StuckTree is the session tree of the deadlocked configuration
	// (deadlock verdicts only).
	StuckTree string
	// States is the number of distinct abstract states explored.
	States int
	// Reason explains why the exploration stopped early (Unknown
	// verdicts only): budget exhausted, deadline exceeded, cancelled, or
	// an internal error in the worker that owned this unit.
	Reason string
	// Frontier is the number of states discovered but not yet explored
	// at the cutoff (Unknown verdicts only).
	Frontier int
}

func (r *Report) String() string {
	switch r.Verdict {
	case Valid:
		return fmt.Sprintf("valid (%d states)", r.States)
	case SecurityViolation:
		return fmt.Sprintf("security violation of %s after %s (%d states)",
			r.Policy, strings.Join(r.traceLabels(), "·"), r.States)
	case NotCompliant:
		return fmt.Sprintf("request %s not compliant: %s", r.Request, r.Witness)
	case UnboundedNesting:
		return fmt.Sprintf("unbounded session nesting: %s", r.Witness)
	case Unknown:
		return fmt.Sprintf("unknown: %s (%d states explored, %d frontier)",
			r.Reason, r.States, r.Frontier)
	default:
		return fmt.Sprintf("deadlock at %s after %s (%d states)",
			r.StuckTree, strings.Join(r.traceLabels(), "·"), r.States)
	}
}

// traceLabels returns the rendered trace: the stored labels when present
// (store-decoded reports), otherwise derived from the live entries.
func (r *Report) traceLabels() []string {
	if r.TraceLabels != nil || len(r.Trace) == 0 {
		return r.TraceLabels
	}
	parts := make([]string, len(r.Trace))
	for i, e := range r.Trace {
		parts[i] = e.Label.String()
	}
	return parts
}

// MaxStates bounds the exploration.
const MaxStates = 1 << 20

// Options tunes plan validation.
type Options struct {
	// Capacities bounds the availability of the listed service locations
	// (the §5 extension): opening a session consumes a replica, closing
	// releases it. Locations absent from the map replicate unboundedly.
	// Exhausted capacity shows up as a communication deadlock when some
	// computation can strand an open on an unavailable service.
	Capacities map[hexpr.Location]int
	// Cache memoises compliance verdicts, product automata and one-step
	// transition sets across CheckPlan calls; plan synthesis shares one
	// cache over every candidate plan. Nil builds a private per-call cache
	// (stepping is still amortised across the states of the exploration).
	Cache *memo.Cache
	// Budget meters the exploration (nil = unbounded): every popped state
	// and built edge is charged, and exhaustion or cancellation stops the
	// search with a sound Unknown report instead of an error — verdicts
	// decided before the cutoff stand.
	Budget *budget.Budget
	// SkipDiskProbe disables the persistent-report tier for this call even
	// when the cache has a store attached: the report is neither probed nor
	// written back, while the compliance and LTS tiers underneath stay
	// active. The store-backed check sets it on its own recompute, which it
	// already counted as a miss, and the legacy plan engine sets it under
	// plans.Options.MemoryTierOnly to keep sweep verdicts off the disk.
	SkipDiskProbe bool
}

// unknownReport closes an exploration cut off by the budget: the verdict
// is Unknown (never Valid — the space was not exhausted), the reason the
// budget's, the frontier the number of discovered-but-unexplored states.
func unknownReport(report *Report, e *budget.ExhaustedError, frontier int) *Report {
	report.Verdict = Unknown
	report.Reason = e.Error()
	report.Frontier = frontier
	return report
}

// CheckPlan validates the plan for one client against the repository,
// following the §5 recipe: (a) every request occurring in the composed
// service — in the client or transitively in the services the plan selects
// — must be bound to a compliant service (product automaton, Theorem 1);
// (b) the exhaustive exploration of the network under the plan must reach
// no security violation and no stuck configuration. It returns a Valid
// report when both hold, and a counterexample report otherwise.
func CheckPlan(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, plan network.Plan) (*Report, error) {
	return CheckPlanOpts(repo, table, loc, client, plan, Options{})
}

// StaticCheck runs the exploration-free prechecks of plan validation: it
// refuses cyclic compositions (their session nesting is unbounded and the
// state space infinite) and checks every bound request of the composed
// service for compliance. It returns a counterexample report when a check
// fails and nil when the plan passes — ready for the exhaustive
// exploration. CheckPlanOpts and the fused synthesis engine
// (internal/plans) share it, so static verdicts and witnesses are
// identical across engines by construction.
func StaticCheck(repo network.Repository, client hexpr.Expr,
	plan network.Plan, cache *memo.Cache) (*Report, error) {

	if cyc := CallCycle(repo, client, plan); cyc != nil {
		return &Report{
			Verdict: UnboundedNesting,
			Witness: fmt.Sprintf("cyclic service calls: %s", LocPath(cyc)),
		}, nil
	}

	// Per-request compliance over the composed service; verdicts (and
	// their witnesses) are memoised per distinct (body, service) pair, so
	// assessing many plans over the same repository decides each pair once.
	reqs, err := PlannedRequests(repo, client, plan)
	if err != nil {
		return nil, err
	}
	for _, pr := range reqs {
		if !pr.Bound {
			continue // the exploration reports the deadlock with a trace
		}
		ok, witness, err := cache.Compliance(pr.Body, pr.Service)
		if err != nil {
			return nil, err
		}
		if !ok {
			return &Report{
				Verdict: NotCompliant,
				Request: pr.Req,
				Witness: fmt.Sprintf("service at %s: %s", pr.Loc, witness),
			}, nil
		}
	}
	return nil, nil
}

// CheckPlanOpts is CheckPlan with extension options.
func CheckPlanOpts(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, plan network.Plan, opts Options) (*Report, error) {

	cache := opts.Cache
	if cache == nil {
		cache = memo.New()
	}

	// Persistent tier: probe the store under the content hash of the
	// verdict's dependency cone; on a miss compute under singleflight (so
	// concurrent workers explore a cone once) and write the report back.
	// Unknown reports — budget cutoffs, cancellations — are never
	// persisted: they describe this run's limits, not the cone's content.
	if disk := cache.Disk(); disk != nil && !opts.SkipDiskProbe {
		sum, err := PlanKey(repo, table, loc, client, plan, opts.Capacities)
		if err != nil {
			return nil, err
		}
		if raw, ok := disk.Get(store.KindPlanReport, sum); ok {
			if r, err := DecodeReport(raw); err == nil {
				return r, nil
			}
		}
		got, err := disk.Once(store.KindPlanReport, sum, func() (any, error) {
			if raw, ok := disk.Peek(store.KindPlanReport, sum); ok {
				if r, err := DecodeReport(raw); err == nil {
					return r, nil
				}
			}
			inner := opts
			inner.Cache = cache
			inner.SkipDiskProbe = true
			r, err := CheckPlanOpts(repo, table, loc, client, plan, inner)
			if err != nil {
				return nil, err
			}
			if r.Verdict != Unknown {
				enc, eerr := EncodeReport(r)
				if eerr != nil {
					return nil, eerr
				}
				if perr := disk.Put(store.KindPlanReport, sum, enc); perr != nil {
					return nil, perr
				}
			}
			return r, nil
		})
		if err != nil {
			return nil, err
		}
		return got.(*Report), nil
	}

	// (a) the static prechecks: cyclic composition, per-request compliance.
	if r, err := StaticCheck(repo, client, plan, cache); err != nil {
		return nil, err
	} else if r != nil {
		return r, nil
	}

	// (b) exhaustive exploration for security and structural deadlocks;
	// limited locations are tracked in a dense availability vector.
	var limited []hexpr.Location
	for l := range opts.Capacities {
		limited = append(limited, l)
	}
	sort.Slice(limited, func(i, j int) bool { return limited[i] < limited[j] })
	limitedIdx := map[hexpr.Location]int{}
	initialAvail := make([]int, len(limited))
	for i, l := range limited {
		limitedIdx[l] = i
		initialAvail[i] = opts.Capacities[l]
	}

	type state struct {
		tree  network.Node
		mon   *history.Monitor
		avail []int
		trace *traceNode
	}
	start := state{
		tree:  network.Leaf{Loc: loc, Expr: client},
		mon:   history.NewMonitor(table),
		avail: initialAvail,
	}
	// Visited states are keyed by a small comparable struct of interned
	// IDs — tree shape and monitor signature are interned once per state
	// instead of concatenated into an O(size) string per lookup.
	tab := cache.Interner()
	key := func(s state) stateKey {
		return stateKey{
			tree:  InternTree(tab, s.tree),
			sig:   tab.Key(s.mon.Signature()),
			avail: packAvail(s.avail),
		}
	}
	// The queue is a ring buffer: `queue = queue[1:]` would pin the whole
	// backing array — every state ever enqueued — until the exploration
	// ends, while the ring reuses dequeued slots and keeps only the
	// frontier live.
	seen := map[stateKey]bool{key(start): true}
	var queue ring.Queue[state]
	queue.Push(start)
	report := &Report{}
	for queue.Len() > 0 {
		report.States++
		if report.States > MaxStates {
			return nil, fmt.Errorf("verify: exploration exceeds %d states", MaxStates)
		}
		if e := opts.Budget.ConsumeStates(1); e != nil {
			report.States--
			return unknownReport(report, e, queue.Len()), nil
		}
		s := queue.Pop()
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.VerifyState, s.tree.Key())
		}
		all := network.TreeMovesStep(s.tree, plan, repo, cache.Steps)
		moves := all[:0:0]
		for _, m := range all {
			if m.OpenLoc != "" {
				if i, ok := limitedIdx[m.OpenLoc]; ok && s.avail[i] == 0 {
					continue // no replica available: not enabled
				}
			}
			moves = append(moves, m)
		}
		if e := opts.Budget.ConsumeEdges(int64(len(moves))); e != nil {
			return unknownReport(report, e, queue.Len()), nil
		}
		if len(moves) == 0 && !network.Done(s.tree) {
			report.Verdict = CommunicationDeadlock
			report.Trace = s.trace.materialize()
			report.StuckTree = s.tree.Key()
			return report, nil
		}
		for _, m := range moves {
			// Item-less moves (synchronisations) leave the monitor
			// untouched; sharing it avoids a map copy per move. Monitors
			// are only ever advanced on fresh snapshots, so sharing is
			// safe.
			mon := s.mon
			bad := hexpr.NoPolicy
			if len(m.Items) > 0 {
				mon = s.mon.Snapshot()
				for _, it := range m.Items {
					if err := mon.Append(it); err != nil {
						if verr, ok := err.(*history.ViolationError); ok {
							bad = verr.Policy
						} else {
							return nil, fmt.Errorf("verify: unexpected monitor error: %w", err)
						}
						break
					}
				}
			}
			entry := network.TraceEntry{Comp: 0, Label: m.Label}
			if bad != hexpr.NoPolicy {
				report.Verdict = SecurityViolation
				report.Policy = bad
				report.Trace = (&traceNode{prev: s.trace, entry: entry}).materialize()
				return report, nil
			}
			avail := s.avail
			if len(limited) > 0 && (m.OpenLoc != "" || m.ReleaseLoc != "") {
				avail = append([]int(nil), s.avail...)
				if i, ok := limitedIdx[m.OpenLoc]; ok && m.OpenLoc != "" {
					avail[i]--
				}
				if i, ok := limitedIdx[m.ReleaseLoc]; ok && m.ReleaseLoc != "" {
					avail[i]++
				}
			}
			next := state{
				tree:  m.Tree,
				mon:   mon,
				avail: avail,
				trace: &traceNode{prev: s.trace, entry: entry},
			}
			k := key(next)
			if !seen[k] {
				seen[k] = true
				queue.Push(next)
			}
		}
	}
	report.Verdict = Valid
	return report, nil
}

// ValidPlan reports whether the plan is valid for the client.
func ValidPlan(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, plan network.Plan) (bool, error) {
	r, err := CheckPlan(repo, table, loc, client, plan)
	if err != nil {
		return false, err
	}
	return r.Verdict == Valid, nil
}

// ClientSpec pairs a client with its plan for vector validation.
type ClientSpec struct {
	Loc    hexpr.Location
	Client hexpr.Expr
	Plan   network.Plan
}

// CheckClients validates a vector of clients (one plan each). Components
// of a network never interact, so the vector is valid iff every component
// is; the reports are returned in order. One shared cache memoises
// compliance and stepping across all the clients.
func CheckClients(repo network.Repository, table *policy.Table, clients []ClientSpec) ([]*Report, bool, error) {
	opts := Options{Cache: memo.New()}
	reports := make([]*Report, len(clients))
	all := true
	for i, c := range clients {
		r, err := CheckPlanOpts(repo, table, c.Loc, c.Client, c.Plan, opts)
		if err != nil {
			return nil, false, err
		}
		reports[i] = r
		if r.Verdict != Valid {
			all = false
		}
	}
	return reports, all, nil
}
