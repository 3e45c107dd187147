package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/compliance"
	"susc/internal/engine"
	"susc/internal/hexpr"
	"susc/internal/lint"
	"susc/internal/lts"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/server"
	"susc/internal/store"
	"susc/internal/valid"
	"susc/internal/verify"
)

// The traced run replays a workload's pipeline in-process as a sequence
// of public calls — parser.ParseFile, lint.RunCached, lint.Audit,
// plans.AssessStream, verify.CheckPlanOpts/CheckNetwork, store.Open and
// Close, the NDJSON encode — each wrapped in a span, then probes the
// layers the pipeline reaches only from inside other calls (valid, lts,
// compliance, policy, the lint analyzers) by calling them directly.
// Spans are recorded from these files only; the program is not touched.

// span is one timed call. Times are nanoseconds from the tracer's start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    int64  `json:"req"`    // the operation the span belongs to
}

// tracer records spans of one goroutine in memory. A nil tracer records
// nothing, which is the untraced replay.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// total sums the durations of the spans named name from index from on.
func (t *tracer) total(name string, from int) float64 {
	return totalIn(t, [2]int{from, len(t.spans)}, name)
}

// write dumps every span as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// op is one front-end operation of a replay: what `susc <mode>` or
// POST /v1/<mode> does with one spec.
type op struct {
	mode   string
	src    string
	client string // check, plans
	caps   string // checkall
	batch  bool   // plans: `susc plans -json` (AssessAll, one indented array) instead of the stream
	// maxStates clamps a check's budget, as the server's max-states query
	// does; 0 leaves it unlimited.
	maxStates int64
	// expect checks the operation's records and exit code, presented as
	// the reply the server would send, against the known answer.
	expect func(*response) string
}

// opResult is what the layer probes need from an operation.
type opResult struct {
	file  *parser.File
	audit *lint.AuditResult
}

// layerAcc accumulates the work counts of one replayed pass.
type layerAcc struct {
	fused       plans.FusedStats
	allocs      uint64
	parsedBytes int
	audited     int
	results     []opResult
	problems    []string // one per operation, "" when it met its known answer
}

// runOp replays one operation over sess, mirroring internal/engine and
// the server's mode dispatch, and encodes its records as NDJSON.
func runOp(sess *engine.Session, o op, tr *tracer, acc *layerAcc) error {
	var records []any
	var controls []control
	res := opResult{}
	var err, runErr error
	acc.parsedBytes += len(o.src)
	parse := func(lenient bool) (issues []parser.Issue) {
		tr.do("parser.ParseFile", func() {
			if lenient {
				res.file, issues, err = parser.ParseFileLenient(o.src)
			} else {
				res.file, err = parser.ParseFile(o.src)
			}
		})
		return issues
	}
	tr.do("engine."+o.mode, func() {
		switch o.mode {
		case "lint":
			issues := parse(true)
			if err != nil {
				return
			}
			var diags []lint.Diagnostic
			tr.do("lint.RunCached", func() {
				diags = lint.RunCached(res.file, issues, o.src, sess.Disk, lint.Options{Cache: sess.Cache})
			})
			for _, d := range diags {
				records = append(records, engine.LintEntry{File: "spec", Diagnostic: d})
			}
			runErr = engine.LintErr(diags, nil)
		case "audit":
			issues := parse(true)
			if err != nil {
				return
			}
			tr.do("lint.Audit", func() { res.audit = lint.Audit(res.file, issues, lint.Options{Cache: sess.Cache}) })
			for _, d := range res.audit.Diagnostics {
				records = append(records, engine.LintEntry{File: "spec", Diagnostic: d})
			}
			for _, cc := range res.audit.Coverage {
				records = append(records, engine.CoverageEntry{File: "spec", Coverage: cc})
				acc.audited += cc.Audited
			}
			runErr = engine.AuditErr(res.audit, nil)
		case "check":
			if parse(false); err != nil {
				return
			}
			var c parser.ClientDecl
			if c, err = engine.SelectClient(res.file, o.client); err != nil {
				return
			}
			var bud *budget.Budget
			if o.maxStates > 0 {
				bud = budget.New(nil, budget.Limits{MaxStates: o.maxStates})
			}
			var r *verify.Report
			tr.do("verify.CheckPlanOpts", func() {
				r, err = verify.CheckPlanOpts(res.file.Repo, res.file.Table, c.Loc, c.Expr, c.Plan, verify.Options{Cache: sess.Cache, Budget: bud})
			})
			if err != nil {
				return
			}
			records = append(records, r)
			runErr = engine.CheckErr(r, bud)
		case "checkall":
			if parse(false); err != nil {
				return
			}
			f := res.file
			all := &engine.CheckAllResult{}
			tr.do("lint.RunCached", func() {
				all.Lint = lint.RunCached(f, nil, o.src, sess.Disk, lint.Options{MinSeverity: lint.Warning, Analyzers: lint.AllAnalyzers(), Cache: sess.Cache})
			})
			tr.do("lint.Audit", func() {
				all.Audit = lint.Audit(f, nil, lint.Options{MinSeverity: lint.Warning, Cache: sess.Cache, AuditDeclaredOnly: true})
			})
			res.audit = all.Audit
			for _, cc := range res.audit.Coverage {
				acc.audited += cc.Audited
			}
			for range all.Lint {
				controls = append(controls, control{Susc: "lint"})
			}
			for range all.Audit.Diagnostics {
				controls = append(controls, control{Susc: "audit"})
			}
			defer func() {
				if err == nil {
					runErr = all.Err(nil)
				}
			}()
			var specs []verify.ClientSpec
			for _, c := range f.Clients {
				specs = append(specs, verify.ClientSpec{Loc: c.Loc, Client: c.Expr, Plan: c.Plan})
			}
			opts := verify.Options{Cache: sess.Cache}
			if o.caps != "" {
				if opts.Capacities, err = engine.ParseCaps(o.caps); err != nil {
					return
				}
				var r *verify.Report
				tr.do("verify.CheckNetwork", func() { r, err = verify.CheckNetwork(f.Repo, f.Table, specs, opts) })
				records = append(records, r)
				all.Report = r
				return
			}
			agg := &verify.Report{Verdict: verify.Valid}
			for _, sp := range specs {
				var r *verify.Report
				tr.do("verify.CheckPlanOpts", func() {
					r, err = verify.CheckPlanOpts(f.Repo, f.Table, sp.Loc, sp.Client, sp.Plan, opts)
				})
				if err != nil {
					return
				}
				if r.Verdict != verify.Valid {
					agg = r
					break
				}
				agg.States += r.States
			}
			records = append(records, agg)
			all.Report = agg
		case "plans":
			if parse(false); err != nil {
				return
			}
			var c parser.ClientDecl
			if c, err = engine.SelectClient(res.file, o.client); err != nil {
				return
			}
			opts := plans.Options{PruneNonCompliant: true, Workers: runtime.GOMAXPROCS(0), Cache: sess.Cache}
			if acc != nil {
				opts.Stats = &acc.fused
			}
			var before, after runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&before)
			}
			if o.batch {
				var as []plans.Assessment
				tr.do("plans.AssessAll", func() { as, err = plans.AssessAll(res.file.Repo, res.file.Table, c.Loc, c.Expr, opts) })
				entries := make([]engine.PlanEntry, len(as))
				for i, a := range as {
					entries[i] = engine.ToPlanEntry(a)
				}
				records = append(records, entries)
			} else {
				tr.do("plans.AssessStream", func() {
					err = plans.AssessStream(res.file.Repo, res.file.Table, c.Loc, c.Expr, opts, func(a plans.Assessment) error {
						records = append(records, engine.ToPlanEntry(a))
						return nil
					})
				})
			}
			if tr != nil {
				runtime.ReadMemStats(&after)
				acc.allocs += after.Mallocs - before.Mallocs
			}
		default:
			err = fmt.Errorf("unknown mode %q", o.mode)
		}
	})
	if err != nil {
		return fmt.Errorf("%s: %v", o.mode, err)
	}
	var out bytes.Buffer
	tr.do("server.encode", func() {
		enc := json.NewEncoder(&out)
		if o.batch {
			enc.SetIndent("", "  ")
		}
		for _, r := range records {
			if err = enc.Encode(r); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	acc.results = append(acc.results, res)
	resp := &response{status: 200, controls: controls, done: &control{Susc: "done", Exit: engine.ExitCode(runErr)}}
	if o.batch {
		resp.records = [][]byte{out.Bytes()}
	} else {
		for _, line := range bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n")) {
			if len(line) > 0 {
				resp.records = append(resp.records, line)
			}
		}
	}
	acc.problems = append(acc.problems, o.expect(resp))
	return nil
}

// replay describes one workload's pipeline.
type replay struct {
	ops, edited  []op
	sessionPerOp bool // CLI: every op is a fresh process; serve: one session per pass
}

// passResult is one replayed pass.
type passResult struct {
	seconds float64
	acc     *layerAcc
	memo    memo.Stats
	store   []store.Stats
}

// runPass replays ops through sessions opened on dir ("" = memory only).
// With reuse non-nil, the ops run again on those sessions (memo warm).
func runPass(ops []op, dir string, perOp bool, tr *tracer, name string, reuse []*engine.Session) (passResult, []*engine.Session, error) {
	pr := passResult{acc: &layerAcc{}}
	sessions := reuse
	var err error
	open := func() *engine.Session {
		var s *engine.Session
		tr.do("store.Open", func() { s, err = engine.Open(dir) })
		return s
	}
	t0 := time.Now()
	tr.do("pass/"+name, func() {
		for i, o := range ops {
			if tr != nil {
				tr.req++
			}
			var sess *engine.Session
			switch {
			case reuse != nil && perOp:
				sess = reuse[i]
			case reuse != nil:
				sess = reuse[0]
			case perOp || i == 0:
				if sess = open(); err != nil {
					return
				}
				sessions = append(sessions, sess)
			default:
				sess = sessions[0]
			}
			if err = runOp(sess, o, tr, pr.acc); err != nil {
				return
			}
			if dir != "" && (perOp || i == len(ops)-1) {
				pr.store = append(pr.store, sess.Disk.Stats())
				tr.do("store.Close", func() { err = sess.Close() })
				if err != nil {
					return
				}
			}
		}
	})
	pr.seconds = secs(time.Since(t0))
	for _, s := range sessions {
		st := s.Cache.Stats()
		addMemo(&pr.memo, st)
	}
	return pr, sessions, err
}

func addMemo(dst *memo.Stats, s memo.Stats) {
	dst.ComplianceHits += s.ComplianceHits
	dst.ComplianceMisses += s.ComplianceMisses
	dst.ProductHits += s.ProductHits
	dst.ProductMisses += s.ProductMisses
	dst.StepsHits += s.StepsHits
	dst.StepsMisses += s.StepsMisses
	dst.LTSHits += s.LTSHits
	dst.LTSMisses += s.LTSMisses
	dst.ProjectHits += s.ProjectHits
	dst.ProjectMisses += s.ProjectMisses
	dst.CompiledHits += s.CompiledHits
	dst.CompiledMisses += s.CompiledMisses
	dst.ComplianceEntries += s.ComplianceEntries
	dst.ProductEntries += s.ProductEntries
	dst.StepsEntries += s.StepsEntries
	dst.LTSEntries += s.LTSEntries
	dst.ProjectEntries += s.ProjectEntries
	dst.CompiledEntries += s.CompiledEntries
	dst.ApproxBytes += s.ApproxBytes
}

// roundPasses are the passes of one replay round: the compute passes
// without a store (fresh memo, then the same memo warm) and the store
// passes (cold, warm, one declaration edited).
type roundPasses struct {
	nocache, memoWarm, cold, warm, edit passResult
	seconds                             float64
}

func runRoundReplay(rp replay, dir string, tr *tracer) (roundPasses, error) {
	var r roundPasses
	var err error
	t0 := time.Now()
	var sessions []*engine.Session
	if r.nocache, sessions, err = runPass(rp.ops, "", rp.sessionPerOp, tr, "nocache", nil); err != nil {
		return r, err
	}
	if r.memoWarm, _, err = runPass(rp.ops, "", rp.sessionPerOp, tr, "memowarm", sessions); err != nil {
		return r, err
	}
	cache := filepath.Join(dir, "replay-cache")
	if err := os.RemoveAll(cache); err != nil {
		return r, err
	}
	defer os.RemoveAll(cache)
	if r.cold, _, err = runPass(rp.ops, cache, rp.sessionPerOp, tr, "cold", nil); err != nil {
		return r, err
	}
	if r.warm, _, err = runPass(rp.ops, cache, rp.sessionPerOp, tr, "warm", nil); err != nil {
		return r, err
	}
	if r.edit, _, err = runPass(rp.edited, cache, rp.sessionPerOp, tr, "edit", nil); err != nil {
		return r, err
	}
	r.seconds = secs(time.Since(t0))
	return r, nil
}

// probePlan is one (client, plan) the direct layer probes exercise: the
// declared plans of planned clients and the audited plans of planless ones.
type probePlan struct {
	file   *parser.File
	client parser.ClientDecl
	plan   network.Plan
}

func probePlans(results []opResult) []probePlan {
	var out []probePlan
	seen := map[string]bool{}
	add := func(f *parser.File, c parser.ClientDecl, p network.Plan) {
		key := fmt.Sprintf("%p|%s|%s", f, c.Name, p)
		if !seen[key] {
			seen[key] = true
			out = append(out, probePlan{file: f, client: c, plan: p})
		}
	}
	for _, r := range results {
		if r.file == nil {
			continue
		}
		for _, c := range r.file.Clients {
			if c.Plan != nil {
				add(r.file, c, c.Plan)
			}
		}
		if r.audit == nil {
			continue
		}
		for _, cc := range r.audit.Coverage {
			c, err := r.file.Client(cc.Client)
			if err != nil || c.Plan != nil {
				continue
			}
			for _, pc := range cc.Plans {
				p := network.Plan{}
				for req, loc := range pc.Plan {
					p[hexpr.RequestID(req)] = hexpr.Location(loc)
				}
				add(r.file, c, p)
			}
		}
	}
	return out
}

// distinctFiles returns one parsed file per distinct source of results.
func distinctFiles(results []opResult) []*parser.File {
	var out []*parser.File
	seen := map[*parser.File]bool{}
	for _, r := range results {
		if r.file != nil && !seen[r.file] {
			seen[r.file] = true
			out = append(out, r.file)
		}
	}
	return out
}

// probeResult is one round of direct layer probes.
type probeResult struct {
	times    map[string]float64
	counts   map[string]float64
	analyzer map[string]float64 // analyzer name -> seconds
}

// runProbes calls each layer directly on fresh caches: files are the
// workload's distinct specs, pps the probe plans, served the operations
// the server probe sends.
func runProbes(cfg config, dir string, tr *tracer, ck *checker, files []*parser.File, pps []probePlan, served []op) (probeResult, error) {
	pr := probeResult{times: map[string]float64{}, counts: map[string]float64{}, analyzer: map[string]float64{}}
	timed := func(name string, f func()) {
		t0 := time.Now()
		tr.do(name, f)
		pr.times[name] += secs(time.Since(t0))
	}
	var err error

	// cli: the susc round trip on a trivial input.
	triv := filepath.Join(dir, "trivial.susc")
	if err := os.WriteFile(triv, []byte("service a = x!;\n"), 0o644); err != nil {
		return pr, err
	}
	var starts []float64
	for i := 0; i < 5; i++ {
		var inv invocation
		tr.do("cli.startup", func() { inv, err = runSusc(cfg, dir, "parse", triv) })
		if err != nil {
			return pr, err
		}
		starts = append(starts, secs(inv.wall))
	}
	pr.times["cli.startup"] = median(starts)

	// lint: the syntactic and semantic suites, then the audit suite, each
	// analyzer timed by lint.Stats.
	for _, f := range files {
		st := &lint.Stats{}
		timed("lint.syntactic", func() { lint.Run(f, nil, lint.Options{Analyzers: lint.Analyzers(), Cache: memo.New(), Stats: st}) })
		timed("lint.semantic", func() {
			lint.Run(f, nil, lint.Options{Analyzers: lint.SemanticAnalyzers(), Cache: memo.New(), Stats: st})
		})
		timed("lint.audit", func() {
			lint.Audit(f, nil, lint.Options{Cache: memo.New(), Stats: st})
		})
		for _, a := range st.Analyzers {
			pr.analyzer[a.Name] += a.Duration.Seconds()
		}
	}

	// valid: ExploreFlow on every probe plan, one shared fresh cache.
	flowCache := memo.New()
	timed("valid.ExploreFlow", func() {
		for _, p := range pps {
			if _, err = valid.ExploreFlow(p.file.Repo, p.file.Table, p.client.Loc, p.client.Expr, p.plan, valid.FlowOptions{Cache: flowCache}); err != nil {
				return
			}
			pr.counts["valid.flow_calls"]++
		}
	})
	if err != nil {
		return pr, err
	}

	// verify: CheckPlanOpts on every probe plan, one shared fresh cache.
	vCache := memo.New()
	timed("verify.CheckPlanOpts", func() {
		for _, p := range pps {
			var r *verify.Report
			if r, err = verify.CheckPlanOpts(p.file.Repo, p.file.Table, p.client.Loc, p.client.Expr, p.plan, verify.Options{Cache: vCache}); err != nil {
				return
			}
			pr.counts["verify.states"] += float64(r.States)
		}
	})
	if err != nil {
		return pr, err
	}

	// lts: the LTS of every declaration.
	timed("lts.Build", func() {
		for _, f := range files {
			exprs := make([]hexpr.Expr, 0, len(f.Repo)+len(f.Clients))
			for _, loc := range f.Repo.Locations() {
				exprs = append(exprs, f.Repo[loc])
			}
			for _, c := range f.Clients {
				exprs = append(exprs, c.Expr)
			}
			for _, e := range exprs {
				var l *lts.LTS
				if l, err = lts.Build(e); err != nil {
					return
				}
				pr.counts["lts.states"] += float64(l.Len())
			}
		}
	})
	if err != nil {
		return pr, err
	}

	// compliance: the product of every distinct (request body, bound
	// service) pair of the probe plans.
	type pair struct{ body, service hexpr.Expr }
	var pairs []pair
	seen := map[string]bool{}
	for _, p := range pps {
		reqs, perr := verify.PlannedRequests(p.file.Repo, p.client.Expr, p.plan)
		if perr != nil {
			return pr, perr
		}
		for _, rq := range reqs {
			if !rq.Bound {
				continue
			}
			k := rq.Body.Key() + "\x00" + rq.Service.Key()
			if !seen[k] {
				seen[k] = true
				pairs = append(pairs, pair{rq.Body, rq.Service})
			}
		}
	}
	timed("compliance.NewProduct", func() {
		for _, pp := range pairs {
			if _, err = compliance.NewProduct(pp.body, pp.service); err != nil {
				return
			}
		}
	})
	if err != nil {
		return pr, err
	}
	pr.counts["compliance.pairs"] = float64(len(pairs))

	// policy: compile every file's policy table afresh.
	timed("policy.Compiled", func() {
		for _, f := range files {
			var ins []*policy.Instance
			for _, id := range f.Table.IDs() {
				in, gerr := f.Table.Get(id)
				if gerr != nil {
					err = gerr
					return
				}
				ins = append(ins, in)
			}
			policy.NewTable(ins...).Compiled()
		}
	})
	if err != nil {
		return pr, err
	}

	// server: the workload's operations served once each by a fresh
	// in-process server; time to the first response byte.
	env, err := bootServer(cfg.seed, "")
	if err != nil {
		return pr, err
	}
	defer env.stop()
	tr2 := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr2.CloseIdleConnections()
	client := &http.Client{Transport: tr2, Timeout: requestTimeout}
	var ttfb []float64
	for _, o := range served {
		q := url.Values{}
		if o.client != "" {
			q.Set("client", o.client)
		}
		if o.caps != "" {
			q.Set("cap", o.caps)
		}
		var ms float64
		tr.do("server.request", func() { ms, err = timeToFirstByte(client, env.base+"/v1/"+o.mode+"?"+q.Encode(), o.src) })
		if err != nil {
			return pr, err
		}
		ttfb = append(ttfb, ms)
	}
	pr.times["server.ttfb_ms"] = median(ttfb)
	checkServerStats(ck, "probe server", env.srv)
	return pr, nil
}

// timeToFirstByte posts src and returns the milliseconds until the first
// body byte, draining the rest.
func timeToFirstByte(client *http.Client, u, src string) (float64, error) {
	t0 := time.Now()
	resp, err := client.Post(u, "text/plain", strings.NewReader(src))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var one [1]byte
	if _, err := io.ReadFull(resp.Body, one[:]); err != nil {
		return 0, err
	}
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("server probe: HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return ms, err
}

// tracedRun is the traced run shared by all workloads: rounds of an
// untraced replay, a traced replay and the traced probes until the window
// closes (at least two rounds), then per-layer medians.
func tracedRun(cfg config, name string, rp replay, ck *checker) (metrics, error) {
	dir, err := workDir(cfg, name+"-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	var untraced, traced, unaccounted []float64
	var rounds []roundPasses
	var probes []probeResult
	times := map[string][]float64{}
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < cfg.seconds; i++ {
		// The untraced and traced replays alternate which runs first, so
		// warm-up effects do not bias the overhead either way.
		var u, t roundPasses
		from := len(tr.spans)
		for _, traceIt := range []bool{i%2 == 1, i%2 == 0} {
			var err error
			if traceIt {
				from = len(tr.spans)
				tr.do("round", func() { t, err = runRoundReplay(rp, dir, tr) })
			} else {
				u, err = runRoundReplay(rp, dir, nil)
			}
			if err != nil {
				return nil, err
			}
		}
		untraced = append(untraced, u.seconds)
		traced = append(traced, t.seconds)
		unaccounted = append(unaccounted, 1-layerCovered(tr, from)/tr.total("round", from))
		rounds = append(rounds, t)
		// Per-layer times come from the nocache pass: a fresh session,
		// the cold compute a first request pays.
		nc := spanRange(tr, from, "pass/nocache")
		for _, mode := range server.Modes {
			times["engine."+mode] = append(times["engine."+mode], totalIn(tr, nc, "engine."+mode))
		}
		for _, n := range []string{"parser.ParseFile", "lint.Audit", "plans.AssessAll", "plans.AssessStream", "server.encode"} {
			times["nc."+n] = append(times["nc."+n], totalIn(tr, nc, n))
		}
		times["store.open"] = append(times["store.open"], totalIn(tr, spanRange(tr, from, "pass/warm"), "store.Open"))
		times["store.saved"] = append(times["store.saved"], t.nocache.seconds-t.warm.seconds)
		times["memo.saved"] = append(times["memo.saved"], t.nocache.seconds-t.memoWarm.seconds)

		files := distinctFiles(t.nocache.acc.results)
		pr, err := runProbes(cfg, dir, tr, ck, files, probePlans(t.nocache.acc.results), rp.ops)
		if err != nil {
			return nil, err
		}
		probes = append(probes, pr)
		for _, p := range []passResult{u.nocache, u.memoWarm, u.cold, u.warm, u.edit, t.nocache, t.memoWarm, t.cold, t.warm, t.edit} {
			for i, problem := range p.acc.problems {
				ck.check(fmt.Sprintf("%s replay op %d (%s)", name, i, rp.ops[i].mode), problem)
			}
		}
	}
	if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.jsonl", name, cfg.seed))); err != nil {
		return nil, err
	}
	m := layerMetrics(rounds, probes, times)
	m.set("trace.overhead_frac", median(traced)/median(untraced)-1, "frac")
	m.set("trace.unaccounted_frac", median(unaccounted), "frac")
	return m, nil
}

// spanRange returns the index range [lo, hi) of the first span named name
// from index from on, with its descendants.
func spanRange(t *tracer, from int, name string) [2]int {
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].Name != name {
			continue
		}
		hi := i + 1
		for hi < len(t.spans) && t.spans[hi].Start < t.spans[i].End {
			hi++
		}
		return [2]int{i, hi}
	}
	return [2]int{from, from}
}

func totalIn(t *tracer, r [2]int, name string) float64 {
	var d int64
	for _, s := range t.spans[r[0]:r[1]] {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return float64(d) / 1e9
}

// layerCovered is the time, from index from on, that package-layer spans
// cover: every span except the round, pass and engine.<mode> spans, whose
// own time is glue between layer calls. Layer spans never overlap (the
// replay is sequential), so their durations add.
func layerCovered(t *tracer, from int) float64 {
	var d int64
	for _, s := range t.spans[from:] {
		if isGlue(s.Name) {
			continue
		}
		if s.Parent >= 0 && !isGlue(t.spans[s.Parent].Name) {
			continue // nested inside another layer span
		}
		d += s.End - s.Start
	}
	return float64(d) / 1e9
}

func isGlue(name string) bool {
	return name == "round" || strings.HasPrefix(name, "pass/") || strings.HasPrefix(name, "engine.")
}

// layerMetrics assembles the per-layer metrics: times as medians over
// rounds, counts from the first round (the test holds them equal across
// runs).
func layerMetrics(rounds []roundPasses, probes []probeResult, times map[string][]float64) metrics {
	m := metrics{}
	med := func(name string) float64 { return median(times[name]) }
	probeTime := func(name string) float64 {
		var xs []float64
		for _, p := range probes {
			xs = append(xs, p.times[name])
		}
		return median(xs)
	}
	r0, p0 := rounds[0], probes[0]
	nc := r0.nocache

	m.set("cli.startup_s", probeTime("cli.startup"), "s")
	m.set("parser.s", med("nc.parser.ParseFile"), "s")
	m.set("parser.bytes", float64(nc.acc.parsedBytes), "B")
	m.set("lint.syntactic_s", probeTime("lint.syntactic"), "s")
	m.set("lint.semantic_s", probeTime("lint.semantic"), "s")
	for _, a := range analyzerNames() {
		var xs []float64
		for _, p := range probes {
			xs = append(xs, p.analyzer[a])
		}
		m.set("lint."+a+"_s", median(xs), "s")
	}
	m.set("audit.s", med("nc.lint.Audit"), "s")
	m.set("audit.plans_audited", float64(nc.acc.audited), "count")
	m.set("valid.flow_s", probeTime("valid.ExploreFlow"), "s")
	m.set("valid.flow_calls", p0.counts["valid.flow_calls"], "count")
	m.set("plans.s", med("nc.plans.AssessAll")+med("nc.plans.AssessStream"), "s")
	m.set("plans.allocs", float64(nc.acc.allocs), "count")
	fs := &nc.acc.fused
	m.set("plans.states_expanded", float64(fs.StatesExpanded.Load()), "count")
	m.set("plans.edges_built", float64(fs.EdgesBuilt.Load()), "count")
	m.set("plans.replay_states", float64(fs.ReplayStates.Load()), "count")
	m.set("plans.replay_memo_hits", float64(fs.ReplayMemoHits.Load()), "count")
	m.set("plans.assessed", float64(fs.PlansAssessed.Load()), "count")
	m.set("plans.bindings_pruned", float64(fs.BindingsPruned.Load()), "count")
	m.set("verify.s", probeTime("verify.CheckPlanOpts"), "s")
	m.set("verify.states", p0.counts["verify.states"], "count")
	m.set("lts.build_s", probeTime("lts.Build"), "s")
	m.set("lts.states", p0.counts["lts.states"], "count")
	m.set("compliance.product_s", probeTime("compliance.NewProduct"), "s")
	m.set("compliance.pairs", p0.counts["compliance.pairs"], "count")
	m.set("policy.compile_s", probeTime("policy.Compiled"), "s")

	ms := nc.memo
	m.set("memo.hits", float64(ms.Hits()), "count")
	m.set("memo.misses", float64(ms.Misses()), "count")
	m.set("memo.entries", float64(ms.Entries()), "count")
	m.set("memo.approx_bytes", float64(ms.ApproxBytes), "B")
	for _, t := range []struct {
		name         string
		hits, misses uint64
	}{
		{"compliance", ms.ComplianceHits, ms.ComplianceMisses},
		{"product", ms.ProductHits, ms.ProductMisses},
		{"steps", ms.StepsHits, ms.StepsMisses},
		{"lts", ms.LTSHits, ms.LTSMisses},
		{"project", ms.ProjectHits, ms.ProjectMisses},
		{"compiled", ms.CompiledHits, ms.CompiledMisses},
	} {
		m.set("memo."+t.name+".hits", float64(t.hits), "count")
		m.set("memo."+t.name+".misses", float64(t.misses), "count")
	}
	m.set("memo.saved_s", med("memo.saved"), "s")

	// store: the cold, warm and edit passes of the first round.
	var tot store.Stats
	tot.PerKind = map[store.Kind]store.TableStats{}
	for _, p := range []passResult{r0.cold, r0.warm, r0.edit} {
		for _, st := range p.store {
			for k, t := range st.PerKind {
				a := tot.PerKind[k]
				a.Hits += t.Hits
				a.Misses += t.Misses
				a.Writebacks += t.Writebacks
				tot.PerKind[k] = a
			}
		}
	}
	replayed, bytes := 0, uint64(0)
	for _, st := range r0.warm.store {
		replayed += st.Replayed
	}
	for _, st := range r0.cold.store {
		if b := st.Bytes(); b > bytes {
			bytes = b
		}
	}
	m.set("store.open_s", med("store.open"), "s")
	m.set("store.records_replayed", float64(replayed), "count")
	m.set("store.hits", float64(tot.Hits()), "count")
	m.set("store.misses", float64(tot.Misses()), "count")
	m.set("store.writebacks", float64(tot.Writebacks()), "count")
	m.set("store.bytes", float64(bytes), "B")
	for _, k := range store.Kinds() {
		t := tot.PerKind[k]
		m.set("store."+store.KindName(k)+".hits", float64(t.Hits), "count")
		m.set("store."+store.KindName(k)+".misses", float64(t.Misses), "count")
	}
	m.set("store.saved_s", med("store.saved"), "s")

	for _, mode := range server.Modes {
		m.set("engine."+mode+"_s", med("engine."+mode), "s")
	}
	m.set("server.ttfb_ms", probeTime("server.ttfb_ms"), "ms")
	m.set("server.encode_s", med("nc.server.encode"), "s")
	return m
}

// analyzerNames lists every lint, semantic and audit analyzer by name.
func analyzerNames() []string {
	var out []string
	for _, a := range append(lint.AllAnalyzers(), lint.AuditAnalyzers()...) {
		out = append(out, a.Name)
	}
	sort.Strings(out)
	return out
}

// The per-workload replays.

func tracedPlanFamily(cfg config, ck *checker) (metrics, error) {
	base, edited, err := planFamilySources(cfg.seed)
	if err != nil {
		return nil, err
	}
	mk := func(src string) []op {
		return []op{
			{mode: "plans", src: src, batch: true, expect: func(r *response) string {
				if p := expectDone(r, 0); p != "" {
					return p
				}
				return checkPlanArray(r.records[0], familyPlans)
			}},
			{mode: "audit", src: src, expect: func(r *response) string {
				return checkFamilyAudit(invocation{exit: r.done.Exit, stdout: bytes.Join(r.records, []byte("\n"))})
			}},
		}
	}
	m, err := tracedRun(cfg, "plan-family", replay{ops: mk(base), edited: mk(edited), sessionPerOp: true}, ck)
	if err != nil {
		return nil, err
	}
	for _, c := range latencyClasses {
		m.set("server."+c+"_p50_ms", 0, "ms") // no request classes: the CLI has none
	}
	return m, nil
}

// tracedServeMix replays the serve-mix pool — every pool spec in every
// mode, plus the heavy plans and audit — through one session per pass,
// as the server does; the edit pass edits one hotel of every pool spec.
func tracedServeMix(cfg config, ck *checker) (metrics, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var pool, edited []*hotelsSpec
	for i := 0; i < servePool; i++ {
		s := genHotels(rng, i)
		pool = append(pool, s)
		edited = append(edited, s.edited(i%len(s.hotels), i))
	}
	heavy := benchgen.ChainedSource(heavyDepth, 2)
	mk := func(specs []*hotelsSpec) []op {
		var ops []op
		for _, s := range specs {
			for _, mode := range server.Modes {
				ops = append(ops, requestOp(hotelsRequest(classCold, mode, s, rng.Intn(len(s.clients)))))
			}
		}
		for _, mode := range []string{"plans", "audit"} {
			ops = append(ops, requestOp(heavyRequest(mode, heavy)))
		}
		return ops
	}
	m, err := tracedRun(cfg, "serve-mix", replay{ops: mk(pool), edited: mk(edited)}, ck)
	if err != nil {
		return nil, err
	}
	p50, err := classLatencies(cfg, ck)
	if err != nil {
		return nil, err
	}
	for _, c := range latencyClasses {
		m.set("server."+c+"_p50_ms", p50[c], "ms")
	}
	return m, nil
}

// deterministicCounts names the per-layer metrics of m that are exact work
// counts: the same inputs give the same values on every run, so a change
// in one is a change in the work done. Excluded are the allocation count
// (the runtime allocates in the background) and the memo hit and miss
// counters (parallel plan workers may both miss a key one would fill).
func deterministicCounts(m metrics) []string {
	var out []string
	for name, v := range m {
		if v.Unit != "count" && v.Unit != "B" {
			continue
		}
		if name == "plans.allocs" || strings.HasPrefix(name, "memo.") && (strings.HasSuffix(name, "hits") || strings.HasSuffix(name, "misses")) {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
