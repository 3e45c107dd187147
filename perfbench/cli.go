package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"susc/internal/benchgen"
	"susc/internal/parser"
)

// The plan-family workload: one planless client over Chained(12,2),
// whose 4096 plans are all valid. These are the known answers.
const (
	familyDepth   = 12
	familyFanout  = 2
	familyPlans   = 4096
	familyAudited = 256 // the audit's per-client flow cap
)

// familyTailQ is the quantile of req_tail_ms: the highest that leaves at
// least 10 of a 50 s run's invocations beyond it. A run holds 80 to 160
// of them (10 to 20 rounds of 8), depending on the host's speed.
const familyTailQ = 0.8

// The store-edit check that plan-family runs once per timed run, outside
// the timed part: 24 planned clients over ChainedClients(8,4), the largest
// count whose divergences stay pairwise distinct, so editing client 0's
// divergent service invalidates exactly one plan verdict.
const (
	clientsDepth  = 8
	clientsFanout = 4
	clientsCount  = 24
)

// Pass kinds of the CLI workloads, in the order a round runs them.
const (
	passNoCache = "nocache" // fresh process, no -cache
	passCold    = "cold"    // fresh process, empty -cache directory
	passWarm    = "warm"    // fresh process, the store the cold pass left
	passEdit    = "edit"    // fresh process, same store, one declaration edited
)

var passKinds = []string{passNoCache, passCold, passWarm, passEdit}

// cliInputs are the generated spec files of one CLI workload.
type cliInputs struct {
	dir          string
	base, edited string // spec paths
}

// renamePrefix draws the seeded α-renaming of the service names: "s"
// plus zero to three letters. The structure, and so every verdict and
// work count, is unchanged; names, output bytes and store bytes vary.
func renamePrefix(rng *rand.Rand) string {
	p := "s"
	for i, n := 0, rng.Intn(4); i < n; i++ {
		p += string(rune('a' + rng.Intn(26)))
	}
	return p
}

// chainedName matches a Chained service name, s<level>_<column>, wherever
// it occurs: declarations, signing events and plan bindings.
var chainedName = regexp.MustCompile(`\bs(\d+_\d+)\b`)

// rename α-renames every Chained service name of src.
func rename(src, prefix string) string {
	return chainedName.ReplaceAllString(src, prefix+"$1")
}

// editSgn is the one-declaration edit: the service name fires sgn(name)
// and will fire sgn(name + "e") instead. No other declaration mentions
// the event, so only that service's dependency cone changes, and every
// plan stays valid.
func editSgn(src, name string) (string, error) {
	old := "sgn(" + name + ")"
	if strings.Count(src, old) != 1 {
		return "", fmt.Errorf("edit target %s does not occur exactly once", old)
	}
	return strings.Replace(src, old, "sgn("+name+"e)", 1), nil
}

// planFamilySources renders Chained(12,2) with seeded location names and
// a seeded one-service edit.
func planFamilySources(seed int64) (base, edited string, err error) {
	rng := rand.New(rand.NewSource(seed))
	prefix := renamePrefix(rng)
	base = rename(benchgen.ChainedSource(familyDepth, familyFanout), prefix)
	target := fmt.Sprintf("%s%d_%d", prefix, 1+rng.Intn(familyDepth), rng.Intn(familyFanout))
	edited, err = editSgn(base, target)
	return base, edited, err
}

// clientsSources renders ChainedClients(8,4,24) with seeded location names
// and the edit of client 0's divergent service.
func clientsSources(seed int64) (base, edited string, err error) {
	rng := rand.New(rand.NewSource(seed))
	prefix := renamePrefix(rng)
	base = rename(benchgen.ChainedClientsSource(clientsDepth, clientsFanout, clientsCount), prefix)
	w := benchgen.ChainedClients(clientsDepth, clientsFanout, clientsCount)
	edited, err = editSgn(base, rename(string(w.Divergent(0)), prefix))
	return base, edited, err
}

// writeInputs generates both sources, parses them (a generated spec that
// does not parse is a benchmark bug) and writes them under dir.
func writeInputs(dir string, gen func() (string, string, error)) (cliInputs, error) {
	base, edited, err := gen()
	if err != nil {
		return cliInputs{}, err
	}
	for _, src := range []string{base, edited} {
		if _, err := parser.ParseFile(src); err != nil {
			return cliInputs{}, fmt.Errorf("generated spec does not parse: %v", err)
		}
	}
	in := cliInputs{dir: dir, base: filepath.Join(dir, "spec.susc"), edited: filepath.Join(dir, "edited.susc")}
	if err := os.WriteFile(in.base, []byte(base), 0o644); err != nil {
		return cliInputs{}, err
	}
	return in, os.WriteFile(in.edited, []byte(edited), 0o644)
}

// invocation is one finished susc subprocess.
type invocation struct {
	wall           time.Duration
	rssMB          float64
	exit           int
	stdout, stderr []byte
}

// invocationTimeout kills a susc process that has not finished: it then
// fails its check instead of holding the run past its time limit.
const invocationTimeout = 60 * time.Second

// runSusc runs susc to completion and measures it. Only a failure to
// start is an error; a non-zero exit is data for the checks.
func runSusc(cfg config, dir string, args ...string) (invocation, error) {
	ctx, cancel := context.WithTimeout(context.Background(), invocationTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, cfg.susc, args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(t0), stdout: out.Bytes(), stderr: errb.Bytes()}
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		inv.exit = ee.ExitCode()
	default:
		return inv, fmt.Errorf("running susc %s: %v", strings.Join(args, " "), err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.rssMB = float64(ru.Maxrss) / 1024
	}
	return inv, nil
}

// cliCommand is one susc invocation of a pass: its arguments after the
// spec path (the -cache flag is added per pass) and the known answer.
type cliCommand struct {
	name  string
	args  []string
	check func(inv invocation) string
}

// familyCommands are the invocations of every plan-family pass.
var familyCommands = []cliCommand{
	{name: "plans", args: []string{"-json"}, check: checkFamilyPlans},
	{name: "audit", args: []string{"-json"}, check: checkFamilyAudit},
}

// roundResult is one round of the four passes.
type roundResult struct {
	pass    map[string]float64 // pass kind -> wall seconds (sum over its commands)
	lat     []float64          // every invocation, ms
	peakRSS float64            // largest subprocess RSS of the round, MiB
	storeMB float64            // store file after the cold pass
}

// runRound runs nocache, cold, warm and edit once each over a fresh cache
// directory.
func runRound(cfg config, in cliInputs, ck *checker, round int) (roundResult, error) {
	rr := roundResult{pass: map[string]float64{}}
	cache := filepath.Join(in.dir, fmt.Sprintf("cache%d", round))
	defer os.RemoveAll(cache)
	for _, kind := range passKinds {
		spec := in.base
		if kind == passEdit {
			spec = in.edited
		}
		for _, c := range familyCommands {
			args := append([]string{c.name, spec}, c.args...)
			if kind != passNoCache {
				args = append(args, "-cache", cache)
			}
			inv, err := runSusc(cfg, in.dir, args...)
			if err != nil {
				return rr, err
			}
			ck.check(fmt.Sprintf("plan-family %s pass %s", c.name, kind), c.check(inv))
			rr.pass[kind] += secs(inv.wall)
			rr.lat = append(rr.lat, float64(inv.wall)/float64(time.Millisecond))
			if inv.rssMB > rr.peakRSS {
				rr.peakRSS = inv.rssMB
			}
		}
		if kind == passCold {
			fi, err := os.Stat(filepath.Join(cache, "susc.store"))
			if err != nil {
				return rr, err
			}
			rr.storeMB = float64(fi.Size()) / (1 << 20)
		}
	}
	return rr, nil
}

func timedPlanFamily(cfg config, ck *checker) (metrics, error) {
	dir, err := workDir(cfg, "plan-family")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// A set-up batch rewrites the same inputs, so the rounds can run
	// between batches.
	var clock setupClock
	setup := func() (cliInputs, error) {
		return writeInputs(dir, func() (string, string, error) { return planFamilySources(cfg.seed) })
	}
	in, err := leadSetup(&clock, setup, func(cliInputs) {})
	if err != nil {
		return nil, err
	}
	passes := map[string][]float64{}
	var lat, rss, storeMB []float64
	var busy float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		if round > 0 {
			if in, err = setupBatch(&clock, setup, func(cliInputs) {}); err != nil {
				return nil, err
			}
		}
		rr, err := runRound(cfg, in, ck, round)
		if err != nil {
			return nil, err
		}
		for k, v := range rr.pass {
			passes[k] = append(passes[k], v)
			busy += v
		}
		lat = append(lat, rr.lat...)
		rss = append(rss, rr.peakRSS)
		storeMB = append(storeMB, rr.storeMB)
	}
	growth, err := cliMemoGrowth(cfg, in, ck)
	if err != nil {
		return nil, err
	}
	if err := checkClientsEdit(cfg, dir, cfg.seed, ck, clientsWant); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: plan-family: %d rounds, %d invocations, p%g has %d samples beyond it; nocache pass median %.4fs\n",
		len(rss), len(lat), familyTailQ*100, beyond(lat, familyTailQ), median(passes[passNoCache]))
	m := metrics{}
	m.set("setup_s", clock.seconds(), "s")
	m.set("cold_s", median(passes[passCold]), "s")
	m.set("warm_s", median(passes[passWarm]), "s")
	m.set("edit_s", median(passes[passEdit]), "s")
	m.set("req_p50_ms", median(lat), "ms")
	m.set("req_tail_ms", quantile(lat, familyTailQ), "ms")
	m.set("throughput_rps", float64(len(lat))/busy, "1/s")
	m.set("peak_rss_mb", median(rss), "MB")
	m.set("store_mb", median(storeMB), "MB")
	m.set("session_kb_per_req", growth/1024, "KB")
	return m, nil
}

// memoBytesRE reads the memo-size gauge of a -stats line.
var memoBytesRE = regexp.MustCompile(`(?m)^stats: cache \d+ hits, \d+ misses \([^)]*\), \d+ entries, ~(\d+) bytes$`)

func memoBytes(stderr []byte) float64 {
	m := memoBytesRE.FindSubmatch(stderr)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(string(m[1]), 64)
	return v
}

// storeKindRE reads one per-kind store line of -stats.
var storeKindRE = regexp.MustCompile(`(?m)^stats: store/(\w+) (\d+) hits, (\d+) misses`)

// storeKindCounts maps a record kind to its (hits, misses) of one run.
func storeKindCounts(stderr []byte) map[string][2]int {
	out := map[string][2]int{}
	for _, m := range storeKindRE.FindAllSubmatch(stderr, -1) {
		h, _ := strconv.Atoi(string(m[2]))
		mi, _ := strconv.Atoi(string(m[3]))
		out[string(m[1])] = [2]int{h, mi}
	}
	return out
}

// checkFamilyPlans: 4096 distinct plans, every one valid, exit 0.
func checkFamilyPlans(inv invocation) string {
	if inv.exit != 0 {
		return fmt.Sprintf("exit %d, want 0: %s", inv.exit, firstLine(inv.stderr))
	}
	return checkPlanArray(inv.stdout, familyPlans)
}

// checkPlanArray checks the JSON array of `susc plans -json`: want
// distinct plans, all valid.
func checkPlanArray(out []byte, want int) string {
	var entries []struct {
		Plan   map[string]string `json:"plan"`
		Report struct {
			Verdict string `json:"verdict"`
		} `json:"report"`
	}
	if err := json.Unmarshal(out, &entries); err != nil {
		return fmt.Sprintf("bad plans output: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Report.Verdict != "valid" {
			return fmt.Sprintf("plan %v: verdict %q, want valid", e.Plan, e.Report.Verdict)
		}
		seen[fmt.Sprint(e.Plan)] = true // fmt prints maps with sorted keys
	}
	if len(seen) != want || len(entries) != want {
		return fmt.Sprintf("%d plans (%d distinct), want %d", len(entries), len(seen), want)
	}
	return ""
}

// checkPlanLines checks NDJSON plan records: want distinct plans, all valid.
func checkPlanLines(out []byte, want int) string {
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		plan, rest, ok := bytes.Cut(line, []byte(`,"report":`))
		if !ok || !bytes.HasPrefix(plan, []byte(`{"plan":{`)) {
			return fmt.Sprintf("not a plan record: %.80s", line)
		}
		if !bytes.HasPrefix(rest, []byte(`{"verdict":"valid"`)) {
			return fmt.Sprintf("plan not valid: %.160s", line)
		}
		seen[string(plan)] = true
	}
	if len(seen) != want {
		return fmt.Sprintf("%d distinct plans, want %d", len(seen), want)
	}
	return ""
}

// auditCoverage is the part of an audit coverage record the checks read.
type auditCoverage struct {
	Coverage *coverageSummary `json:"coverage"`
}

type coverageSummary struct {
	Client     string `json:"client"`
	ValidPlans int    `json:"valid_plans"`
	Audited    int    `json:"audited"`
}

// checkFamilyAudit: no findings, one coverage record naming 4096 valid
// plans of which 256 were flow-analyzed, exit 0.
func checkFamilyAudit(inv invocation) string {
	if inv.exit != 0 {
		return fmt.Sprintf("exit %d, want 0: %s", inv.exit, firstLine(inv.stderr))
	}
	covs, diags, err := splitAudit(inv.stdout)
	if err != nil {
		return err.Error()
	}
	if diags != 0 || len(covs) != 1 {
		return fmt.Sprintf("%d findings and %d coverage records, want 0 and 1", diags, len(covs))
	}
	if c := covs[0]; c.ValidPlans != familyPlans || c.Audited != familyAudited {
		return fmt.Sprintf("coverage %d valid / %d audited, want %d / %d", c.ValidPlans, c.Audited, familyPlans, familyAudited)
	}
	return ""
}

// splitAudit separates audit NDJSON into coverage records and a count of
// diagnostic records.
func splitAudit(out []byte) (covs []coverageSummary, diags int, err error) {
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec auditCoverage
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, 0, fmt.Errorf("bad audit record %.80s: %v", line, err)
		}
		if rec.Coverage == nil {
			diags++
			continue
		}
		covs = append(covs, *rec.Coverage)
	}
	return covs, diags, nil
}

// clientsWant is the store/plan traffic (hits, misses) the store-edit
// check requires of each checkall pass: every verdict computed cold, every
// one read back warm, and exactly one recomputed after the edit.
var clientsWant = map[string][2]int{
	passCold: {0, clientsCount},
	passWarm: {clientsCount, 0},
	passEdit: {clientsCount - 1, 1},
}

// checkClientsEdit runs `susc checkall -json -stats -cache` over
// ChainedClients(8,4,24) cold, warm and after the edit of client 0's
// divergent service, and checks each against a valid network, exit 0 and
// the store/plan traffic of want.
func checkClientsEdit(cfg config, dir string, seed int64, ck *checker, want map[string][2]int) error {
	sub := filepath.Join(dir, "clients")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(sub)
	in, err := writeInputs(sub, func() (string, string, error) { return clientsSources(seed) })
	if err != nil {
		return err
	}
	cache := filepath.Join(in.dir, "cache")
	for _, kind := range []string{passCold, passWarm, passEdit} {
		spec := in.base
		if kind == passEdit {
			spec = in.edited
		}
		inv, err := runSusc(cfg, in.dir, "checkall", spec, "-json", "-stats", "-cache", cache)
		if err != nil {
			return err
		}
		ck.check("clients checkall pass "+kind, checkClientsCheckall(inv, want[kind]))
	}
	return nil
}

// checkClientsCheckall: a valid network, exit 0, and the store/plan
// traffic (hits, misses) want.
func checkClientsCheckall(inv invocation, want [2]int) string {
	if inv.exit != 0 {
		return fmt.Sprintf("exit %d, want 0: %s", inv.exit, firstLine(inv.stderr))
	}
	var rep struct {
		Verdict string `json:"verdict"`
	}
	if err := json.Unmarshal(inv.stdout, &rep); err != nil || rep.Verdict != "valid" {
		return fmt.Sprintf("network verdict %q, want valid (%v)", rep.Verdict, err)
	}
	if got := storeKindCounts(inv.stderr)["plan"]; got != want {
		return fmt.Sprintf("store/plan hits,misses = %v, want %v", got, want)
	}
	return ""
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(bytes.TrimSpace(b), []byte("\n"))
	return string(line)
}

// cliMemoGrowth is the memo growth per request of a CLI session: a susc
// process is a session that serves one request, so the memo size it ends
// with (-stats `~bytes`) is its growth per request. Each command runs once
// more, without a store, outside the timed passes, and the sizes are
// averaged.
func cliMemoGrowth(cfg config, in cliInputs, ck *checker) (float64, error) {
	var sum float64
	for _, c := range familyCommands {
		inv, err := runSusc(cfg, in.dir, append(append([]string{c.name, in.base}, c.args...), "-stats")...)
		if err != nil {
			return 0, err
		}
		b := memoBytes(inv.stderr)
		problem := c.check(inv)
		if problem == "" && b == 0 {
			problem = "no memo size on the -stats line"
		}
		ck.check("plan-family "+c.name+" -stats", problem)
		sum += b
	}
	return sum / float64(len(familyCommands)), nil
}
