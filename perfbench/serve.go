package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"susc/internal/benchgen"
	"susc/internal/engine"
	"susc/internal/server"
)

// serve-mix: one in-process server (MaxInFlight 2) on a loopback
// listener, driven by a closed loop of one client, which sends its next
// request when the previous one completes, so the admission limit is never
// the bottleneck (a 429 is a failure). One client, not two, leaves one of
// two cores to the server's collector and to whatever else the machine
// runs. With two, both cores are busy and a request waits behind the
// other client's; on a shared 2-core virtual machine the latencies then
// followed the host's drifting speed further: ten-run spreads of `warm_s`
// of 0.29–0.34 in three sets, against 0.10–0.25 in four with one client.
const (
	serveClients  = 1
	serveInFlight = 2
	servePool     = 24  // base Hotels-family specs
	heavyDepth    = 8   // the repeated small-Chained spec: 256 plans
	clampedStates = "2" // max-states of clamped requests
	serveTailQ    = 0.99
	parityPerMode = 2
	// classDriveRounds is how many requests of each class every client
	// sends in the traced run's class-balanced drive.
	classDriveRounds = 40
	// growthHeavy is how many heavy requests the memo-growth replay serves;
	// every other class is replayed once per pool spec and mode.
	growthHeavy = 20
	// serveSegments is how many parts the mix window is cut into; a
	// set-up batch runs between two parts, while no request is in flight.
	serveSegments = 8
	// requestTimeout fails a request that gets no complete reply instead
	// of holding the run past its time limit.
	requestTimeout = 60 * time.Second
	// rssAfter is the mix request count at which peak_rss_mb is read: a
	// fixed amount of work, so a faster server, which serves more
	// requests in the window and grows its unbounded memo further, does
	// not read as using more memory. A 50 s window holds 5000 to 11000 mix
	// requests, depending on the host's speed.
	rssAfter = 3000
)

// Request classes. first: a pool request on its first sight (the cold
// pass); cold: a freshly α-renamed pool spec, which no session has seen;
// warm: a repeated pool request; edit: a pool spec with one declaration
// edited; clamped: a budget too small to decide; heavy: the repeated
// small-Chained family.
const (
	classFirst   = "first"
	classCold    = "cold"
	classWarm    = "warm"
	classEdit    = "edit"
	classClamped = "clamped"
	classHeavy   = "heavy"
)

// latencyClasses are the classes whose median latency the run reports.
var latencyClasses = []string{classFirst, classCold, classWarm, classEdit, classClamped, classHeavy}

// The mix: each class's share of the requests after the cold pass. No
// request log of a deployed server exists to derive them from; LAYERS.md
// gives the reason for each share.
var serveMix = []struct {
	share float64
	class string
}{
	{0.68, classWarm},
	{0.10, classCold},
	{0.10, classEdit},
	{0.04, classClamped},
	{0.08, classHeavy},
}

// request is one POST with its known answer.
type request struct {
	class  string
	mode   string
	query  url.Values
	src    string
	expect func(r *response) string
	// cliArgs reproduce the request with `susc <mode> FILE -json ...`.
	cliArgs []string
}

// response is one parsed NDJSON reply.
type response struct {
	status   int
	records  [][]byte
	controls []control
	done     *control
}

// control is a control line; only the fields the checks read.
type control struct {
	Susc    string `json:"susc"`
	Exit    int    `json:"exit"`
	Error   string `json:"error"`
	Unit    string `json:"unit"`
	Message string `json:"message"`
}

// hotelsRequest builds a request of mode over spec s with its known
// answer; check and plans requests name client j.
func hotelsRequest(class, mode string, s *hotelsSpec, j int) request {
	src := s.source()
	q := url.Values{}
	r := request{class: class, mode: mode, query: q, src: src}
	switch mode {
	case "check":
		q.Set("client", s.client(j))
		r.cliArgs = []string{"-client", s.client(j)}
		want := s.checkVerdict(j)
		r.expect = func(resp *response) string {
			return expectSingle(resp, []string{want}, exitFor(want))
		}
	case "plans":
		q.Set("client", s.client(j))
		r.cliArgs = []string{"-client", s.client(j), "-stream"}
		want := s.planVerdicts()
		r.expect = func(resp *response) string { return expectPlans(resp, want) }
	case "checkall":
		q.Set("cap", s.caps())
		r.cliArgs = []string{"-cap", s.caps()}
		want := s.networkVerdicts()
		dels := s.count(profDel)
		r.expect = func(resp *response) string {
			if p := expectControls(resp, dels, 0); p != "" {
				return p
			}
			return expectSingle(resp, want, exitFor(want[0]))
		}
	case "lint":
		dels := s.count(profDel)
		r.expect = func(resp *response) string { return expectLint(resp, dels) }
	case "audit":
		valid, clients := s.count(profValid), len(s.clients)
		r.expect = func(resp *response) string { return expectAudit(resp, clients, valid) }
	}
	return r
}

// requestOp is the replay operation of r: what the server runs for it.
func requestOp(r request) op {
	o := op{mode: r.mode, src: r.src, client: r.query.Get("client"), caps: r.query.Get("cap"), expect: r.expect}
	if v := r.query.Get("max-states"); v != "" {
		fmt.Sscan(v, &o.maxStates)
	}
	return o
}

// heavyRequest is a plans or audit request over Chained(8,2).
func heavyRequest(mode, src string) request {
	r := request{class: classHeavy, mode: mode, query: url.Values{}, src: src}
	n := 1 << heavyDepth
	if mode == "plans" {
		r.expect = func(resp *response) string {
			if p := expectDone(resp, 0); p != "" {
				return p
			}
			return checkPlanLines(bytes.Join(resp.records, []byte("\n")), n)
		}
	} else {
		r.expect = func(resp *response) string {
			if p := expectDone(resp, 0); p != "" {
				return p
			}
			covs, diags, err := splitAudit(bytes.Join(resp.records, []byte("\n")))
			if err != nil {
				return err.Error()
			}
			if diags != 0 || len(covs) != 1 || covs[0].ValidPlans != n {
				return fmt.Sprintf("audit: %d findings, %d coverage records, want 0 and 1 with %d valid plans", diags, len(covs), n)
			}
			return ""
		}
	}
	return r
}

func exitFor(verdict string) int {
	if verdict == "valid" {
		return 0
	}
	return 1
}

// expectDone checks the transport, the absence of error control lines
// and the terminal done line's exit code.
func expectDone(resp *response, exit int) string {
	if resp.status != http.StatusOK {
		return fmt.Sprintf("HTTP status %d", resp.status)
	}
	for _, c := range resp.controls {
		if c.Susc == "error" {
			return fmt.Sprintf("error control line: %s: %s", c.Unit, c.Message)
		}
	}
	if resp.done == nil {
		return "no done line"
	}
	if resp.done.Exit != exit {
		return fmt.Sprintf("exit %d, want %d (%s)", resp.done.Exit, exit, resp.done.Error)
	}
	return ""
}

// expectSingle checks a one-record reply (check, checkall) whose verdict
// must be one of want.
func expectSingle(resp *response, want []string, exit int) string {
	if p := expectDone(resp, exit); p != "" {
		return p
	}
	if len(resp.records) != 1 {
		return fmt.Sprintf("%d records, want 1", len(resp.records))
	}
	var rep struct {
		Verdict string `json:"verdict"`
	}
	if err := json.Unmarshal(resp.records[0], &rep); err != nil {
		return err.Error()
	}
	for _, w := range want {
		if rep.Verdict == w {
			return ""
		}
	}
	return fmt.Sprintf("verdict %q, want one of %v", rep.Verdict, want)
}

// expectPlans checks one record per expected plan, keyed by the
// location bound to r3.
func expectPlans(resp *response, want map[string]string) string {
	if p := expectDone(resp, 0); p != "" {
		return p
	}
	got := map[string]string{}
	for _, rec := range resp.records {
		var e struct {
			Plan   map[string]string `json:"plan"`
			Report struct {
				Verdict string `json:"verdict"`
			} `json:"report"`
		}
		if err := json.Unmarshal(rec, &e); err != nil {
			return err.Error()
		}
		got[e.Plan["r3"]] = e.Report.Verdict
	}
	if len(got) != len(resp.records) || len(got) != len(want) {
		return fmt.Sprintf("%d plan records, want %d", len(resp.records), len(want))
	}
	for loc, v := range want {
		if got[loc] != v {
			return fmt.Sprintf("plan r3 -> %s: %q, want %q", loc, got[loc], v)
		}
	}
	return ""
}

// expectControls counts checkall's lint and audit control lines.
func expectControls(resp *response, lint, audit int) string {
	n := map[string]int{}
	for _, c := range resp.controls {
		n[c.Susc]++
	}
	if n["lint"] != lint || n["audit"] != audit {
		return fmt.Sprintf("%d lint and %d audit findings, want %d and %d", n["lint"], n["audit"], lint, audit)
	}
	return ""
}

// expectLint: exactly one SUSC005 dead-service warning per Del hotel.
func expectLint(resp *response, dels int) string {
	if p := expectDone(resp, 0); p != "" {
		return p
	}
	if len(resp.records) != dels {
		return fmt.Sprintf("%d findings, want %d", len(resp.records), dels)
	}
	for _, rec := range resp.records {
		if !bytes.Contains(rec, []byte(`"code":"SUSC005"`)) {
			return fmt.Sprintf("unexpected finding %.120s", rec)
		}
	}
	return ""
}

// expectAudit: no findings, one coverage record per client, each naming
// every valid hotel as a valid plan.
func expectAudit(resp *response, clients, valid int) string {
	if p := expectDone(resp, 0); p != "" {
		return p
	}
	covs, diags, err := splitAudit(bytes.Join(resp.records, []byte("\n")))
	if err != nil {
		return err.Error()
	}
	if diags != 0 || len(covs) != clients {
		return fmt.Sprintf("%d findings and %d coverage records, want 0 and %d", diags, len(covs), clients)
	}
	for _, c := range covs {
		if c.ValidPlans != valid {
			return fmt.Sprintf("client %s: %d valid plans, want %d", c.Client, c.ValidPlans, valid)
		}
	}
	return ""
}

// serveEnv is one booted server with its inputs.
type serveEnv struct {
	pool     []*hotelsSpec
	poolReqs [][]request // per pool spec, one request per mode
	heavy    string
	srv      *server.Server
	base     string // http://addr
	errc     chan error
}

// bootServer generates the inputs, opens a fresh store and boots the
// server until /healthz answers.
func bootServer(seed int64, cacheDir string) (*serveEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	env := &serveEnv{heavy: benchgen.ChainedSource(heavyDepth, 2)}
	for i := 0; i < servePool; i++ {
		s := genHotels(rng, i)
		env.pool = append(env.pool, s)
		var rs []request
		for _, mode := range server.Modes {
			rs = append(rs, hotelsRequest(classWarm, mode, s, rng.Intn(len(s.clients))))
		}
		env.poolReqs = append(env.poolReqs, rs)
	}
	if cacheDir != "" {
		if err := os.RemoveAll(cacheDir); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(server.Config{CacheDir: cacheDir, MaxInFlight: serveInFlight})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(time.Second)
		return nil, err
	}
	env.srv, env.base, env.errc = srv, "http://"+l.Addr().String(), make(chan error, 1)
	go func() { env.errc <- srv.Serve(l) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := healthClient.Get(env.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return env, nil
			}
		}
		if time.Now().After(deadline) {
			env.stop()
			return nil, fmt.Errorf("server not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

var healthClient = &http.Client{Timeout: time.Second}

// stop drains the server and waits for Serve to return.
func (e *serveEnv) stop() error {
	err := e.srv.Shutdown(5 * time.Second)
	if serr := <-e.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one request and reads the whole reply.
func post(client *http.Client, base string, r request) (*response, error) {
	u := base + "/v1/" + r.mode
	if len(r.query) > 0 {
		u += "?" + r.query.Encode()
	}
	resp, err := client.Post(u, "text/plain", strings.NewReader(r.src))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &response{status: resp.StatusCode}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		if !bytes.HasPrefix(line, []byte(`{"susc":`)) {
			out.records = append(out.records, line)
			continue
		}
		var c control
		if err := json.Unmarshal(line, &c); err != nil {
			return nil, fmt.Errorf("bad control line %.80s: %v", line, err)
		}
		out.controls = append(out.controls, c)
		if c.Susc == "done" {
			cc := c
			out.done = &cc
		}
	}
	return out, sc.Err()
}

// mixPeriod is the length of one period of a client's class schedule; every
// class's share of it is a whole number of requests.
const mixPeriod = 50

// mixGen draws the request stream of one client. The stream is stratified,
// not drawn request by request: the classes follow a seeded schedule that
// holds each class's exact share in every mixPeriod requests, and the k-th
// request of a class takes the k-th (pool spec, mode) pair of a seeded
// order of all of them, cycling, with the edited hotel and the named client
// cycling too. So every run of a given length sends each class the same
// blend of specs, modes and hotels, and a class's median latency does not
// move with which of them its requests happened to draw.
type mixGen struct {
	env   *serveEnv
	id    int
	fresh int
	sched []string       // one period of classes
	pairs [][2]int       // (pool spec, mode index), in seeded order
	sent  map[string]int // requests of each class so far
	n     int            // requests so far
}

func newMixGen(env *serveEnv, id int, seed int64) *mixGen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id) + 1))
	g := &mixGen{env: env, id: id, sent: map[string]int{}}
	for _, m := range serveMix {
		for k := 0; k < int(m.share*mixPeriod+0.5); k++ {
			g.sched = append(g.sched, m.class)
		}
	}
	rng.Shuffle(len(g.sched), func(a, b int) { g.sched[a], g.sched[b] = g.sched[b], g.sched[a] })
	for i := range env.pool {
		for mi := range server.Modes {
			g.pairs = append(g.pairs, [2]int{i, mi})
		}
	}
	rng.Shuffle(len(g.pairs), func(a, b int) { g.pairs[a], g.pairs[b] = g.pairs[b], g.pairs[a] })
	return g
}

func (g *mixGen) next() request {
	class := g.sched[g.n%len(g.sched)]
	g.n++
	return g.nextOf(class)
}

// nextOf is the client's next request of class.
func (g *mixGen) nextOf(class string) request {
	k := g.sent[class]
	g.sent[class]++
	p := g.pairs[k%len(g.pairs)]
	return g.of(class, p[0], p[1], k+k/len(g.pairs))
}

// of builds a request of class over pool spec i in mode server.Modes[mi]
// (clamped requests are always checks, heavy ones plans or audit); v picks
// the edited hotel, the named client and the heavy mode.
func (g *mixGen) of(class string, i, mi, v int) request {
	mode := server.Modes[mi]
	s := g.env.pool[i]
	j := v % len(s.clients)
	switch class {
	case classWarm:
		return g.env.poolReqs[i][mi]
	case classCold:
		g.fresh++
		return hotelsRequest(classCold, mode, s.renamed(fmt.Sprintf("f%dx%d", g.id, g.fresh)), j)
	case classEdit:
		g.fresh++
		return hotelsRequest(classEdit, mode, s.edited(v%len(s.hotels), g.fresh*serveClients+g.id), j)
	case classClamped:
		g.fresh++
		fs, j := s.renamed(fmt.Sprintf("k%dx%d", g.id, g.fresh)).validClient()
		r := request{class: classClamped, mode: "check", src: fs.source(), query: url.Values{}}
		r.query.Set("client", fs.client(j))
		r.query.Set("max-states", clampedStates)
		r.expect = func(resp *response) string { return expectSingle(resp, []string{"unknown"}, 3) }
		return r
	}
	return heavyRequest([]string{"plans", "audit"}[v%2], g.env.heavy)
}

// sample is one completed request.
type sample struct {
	class string
	mode  string
	ms    float64
}

// drive runs the closed loop: one goroutine per generator sends next()
// until it reports false, one request at a time, and checks each reply.
func drive(env *serveEnv, client *http.Client, ck *checker, gens []*mixGen, next func(g *mixGen) (request, bool)) []sample {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *mixGen) {
			defer wg.Done()
			for {
				r, ok := next(g)
				if !ok {
					return
				}
				t0 := time.Now()
				resp, err := post(client, env.base, r)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				problem := ""
				if err != nil {
					problem = "transport: " + err.Error()
				} else {
					problem = r.expect(resp)
				}
				mu.Lock()
				ck.check(fmt.Sprintf("serve %s %s", r.class, r.mode), problem)
				out = append(out, sample{class: r.class, mode: r.mode, ms: ms})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return out
}

// newClients returns the closed loop's HTTP client and one seeded request
// generator per client; closeClients releases the client's connections.
func newClients(env *serveEnv, seed int64) (client *http.Client, gens []*mixGen, closeClients func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	for i := 0; i < serveClients; i++ {
		gens = append(gens, newMixGen(env, i, seed))
	}
	return &http.Client{Transport: tr, Timeout: requestTimeout}, gens, tr.CloseIdleConnections
}

// driveCold serves the cold pass, the pool once over, split between the
// clients.
func driveCold(env *serveEnv, client *http.Client, ck *checker, gens []*mixGen) []sample {
	cold := coldPass(env)
	var idx atomic.Int64
	return drive(env, client, ck, gens, func(*mixGen) (request, bool) {
		i := idx.Add(1) - 1
		if int(i) >= len(cold) {
			return request{}, false
		}
		return cold[i], true
	})
}

// coldPass is every pool request once, on the fresh session: the
// first-sight class. The mix's warm class repeats exactly these.
func coldPass(env *serveEnv) []request {
	var rs []request
	for _, reqs := range env.poolReqs {
		for _, r := range reqs {
			r.class = classFirst
			rs = append(rs, r)
		}
	}
	return rs
}

// checkServerStats fails the run if srv shed a request (a 429) or
// isolated a handler panic: the closed loop never exceeds MaxInFlight.
func checkServerStats(ck *checker, what string, srv *server.Server) {
	st := srv.Stats()
	problem := ""
	if st.Shed != 0 || st.Panics != 0 {
		problem = fmt.Sprintf("%d shed, %d panics, want 0", st.Shed, st.Panics)
	}
	ck.check(what+" stats", problem)
}

// memoGrowth is the memo growth per mix request of a long-lived session,
// in bytes. The server does not expose its session's memo size (server.Stats
// has no ApproxBytes), so the mix's classes are replayed through one
// engine.Session on a fresh store, by the calls the server makes, and
// memo.Stats.ApproxBytes is read between them. The cold pass and one of
// each heavy request come first: growth a long run pays once. Then every
// class is replayed (cold, warm, edit and clamped once per pool spec and
// mode, heavy growthHeavy times), and each class's mean growth per
// request is weighted by its share of the mix.
func memoGrowth(env *serveEnv, seed int64, dir string, ck *checker) (float64, error) {
	sess, err := engine.Open(dir)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	serveAll := func(what string, rs []request) (float64, error) {
		before := sess.Cache.Stats().ApproxBytes
		acc := &layerAcc{}
		for _, r := range rs {
			if err := runOp(sess, requestOp(r), nil, acc); err != nil {
				return 0, err
			}
		}
		for i, problem := range acc.problems {
			ck.check(fmt.Sprintf("memo growth %s %s", what, rs[i].mode), problem)
		}
		return float64(sess.Cache.Stats().ApproxBytes - before), nil
	}
	prime := append(coldPass(env), heavyRequest("plans", env.heavy), heavyRequest("audit", env.heavy))
	if _, err := serveAll("prime", prime); err != nil {
		return 0, err
	}
	g := newMixGen(env, serveClients, seed)
	var perReq float64
	for _, m := range serveMix {
		var rs []request
		if m.class == classHeavy {
			for k := 0; k < growthHeavy; k++ {
				rs = append(rs, heavyRequest([]string{"plans", "audit"}[k%2], env.heavy))
			}
		} else {
			for i := range env.pool {
				for mi := range server.Modes {
					rs = append(rs, g.of(m.class, i, mi, len(rs)))
				}
			}
		}
		grown, err := serveAll(m.class, rs)
		if err != nil {
			return 0, err
		}
		perReq += m.share * grown / float64(len(rs))
	}
	return perReq, nil
}

// classLatencies serves, on a fresh server with a store, the cold pass and
// then every mix class in turn, classDriveRounds requests of each per
// client, and returns each class's median latency in ms. The classes take
// equal turns, so each median rests on as many samples whatever the mix
// shares are, and a drift of the host's speed touches all of them alike.
func classLatencies(cfg config, ck *checker) (map[string]float64, error) {
	dir, err := workDir(cfg, "serve-classes")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env, err := bootServer(cfg.seed, filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	defer env.stop()
	client, gens, closeClients := newClients(env, cfg.seed)
	defer closeClients()
	samples := driveCold(env, client, ck, gens)
	// Each round sends every class once, in a seeded order of its own, so
	// that no class always follows the heavy one and pays for its garbage.
	rng := rand.New(rand.NewSource(cfg.seed))
	var order []string
	for r := 0; r < classDriveRounds; r++ {
		round := make([]string, len(serveMix))
		for i, m := range serveMix {
			round[i] = m.class
		}
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		order = append(order, round...)
	}
	sent := make([]int, len(gens))
	samples = append(samples, drive(env, client, ck, gens, func(g *mixGen) (request, bool) {
		n := sent[g.id]
		if n >= len(order) {
			return request{}, false
		}
		sent[g.id]++
		return g.nextOf(order[n]), true
	})...)
	checkServerStats(ck, "class drive server", env.srv)
	byClass := map[string][]float64{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	p50 := map[string]float64{}
	for _, c := range latencyClasses {
		p50[c] = median(byClass[c])
	}
	return p50, nil
}

func timedServeMix(cfg config, ck *checker) (metrics, error) {
	dir, err := workDir(cfg, "serve-mix")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var clock setupClock
	stop := func(e *serveEnv) { e.stop() }
	cacheDir := filepath.Join(dir, "cache")
	env, err := leadSetup(&clock, func() (*serveEnv, error) { return bootServer(cfg.seed, cacheDir) }, stop)
	if err != nil {
		return nil, err
	}
	// The set-up batches between the window's segments boot servers of
	// their own on another store.
	spareDir := filepath.Join(dir, "spare-cache")
	spare := func() (*serveEnv, error) { return bootServer(cfg.seed, spareDir) }
	stopped := false
	defer func() {
		if !stopped {
			env.stop()
		}
	}()
	client, gens, closeClients := newClients(env, cfg.seed)
	defer closeClients()
	start := time.Now()
	samples := driveCold(env, client, ck, gens)
	nCold := len(samples)
	busy := time.Since(start)
	fi, err := os.Stat(filepath.Join(cacheDir, "susc.store"))
	if err != nil {
		return nil, err
	}
	storeMB := float64(fi.Size()) / (1 << 20)
	var issued atomic.Int64
	var rssOnce sync.Once
	peakRSS := 0.0
	readRSS := func() { rssOnce.Do(func() { peakRSS = selfMaxRSSMB() }) }
	var mix []sample
	var mixBusy time.Duration
	for seg := 1; seg <= serveSegments; seg++ {
		end := start.Add(cfg.seconds * time.Duration(seg) / serveSegments)
		t0 := time.Now()
		mix = append(mix, drive(env, client, ck, gens, func(g *mixGen) (request, bool) {
			if issued.Add(1) == rssAfter {
				readRSS()
			}
			if time.Now().After(end) {
				return request{}, false
			}
			return g.next(), true
		})...)
		mixBusy += time.Since(t0)
		if seg < serveSegments {
			e, err := setupBatch(&clock, spare, stop)
			if err != nil {
				return nil, err
			}
			e.stop()
		}
	}
	busy += mixBusy
	if issued.Load() < rssAfter {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: window closed after %d mix requests; peak_rss_mb read at the end, not after %d\n", issued.Load(), rssAfter)
	}
	readRSS()
	samples = append(samples, mix...)

	byClass := map[string][]float64{}
	var all []float64
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s.ms/1000)
		all = append(all, s.ms)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("the cold pass used the whole %v window; no mix requests were sent", cfg.seconds)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix: %d requests (%d cold pass, %d mix in %.2fs); p99 has %d samples beyond it; per class:",
		len(all), nCold, len(mix), mixBusy.Seconds(), beyond(all, serveTailQ))
	for _, c := range latencyClasses {
		fmt.Fprintf(os.Stderr, " %s n=%d p50=%.2fms", c, len(byClass[c]), median(byClass[c])*1000)
	}
	fmt.Fprintln(os.Stderr)
	if err := checkParity(cfg, dir, env, client, ck, rand.New(rand.NewSource(cfg.seed*7919))); err != nil {
		return nil, err
	}
	checkServerStats(ck, "serve-mix server", env.srv)
	stopped = true
	if err := env.stop(); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	growth, err := memoGrowth(env, cfg.seed, filepath.Join(dir, "growth-cache"), ck)
	if err != nil {
		return nil, err
	}

	m := metrics{}
	m.set("setup_s", clock.seconds(), "s")
	m.set("cold_s", classLatency(samples, classCold), "s")
	m.set("warm_s", classLatency(samples, classWarm), "s")
	m.set("edit_s", classLatency(samples, classEdit), "s")
	m.set("req_p50_ms", median(all), "ms")
	m.set("req_tail_ms", quantile(all, serveTailQ), "ms")
	m.set("throughput_rps", float64(len(all))/busy.Seconds(), "1/s")
	m.set("peak_rss_mb", peakRSS, "MB")
	m.set("store_mb", storeMB, "MB")
	m.set("session_kb_per_req", growth/1024, "KB")
	return m, nil
}

// classLatency is the geometric mean, over the five modes, of the median
// latency in seconds of class's requests in each mode. One request costs
// from a fraction of a millisecond (lint) to a few (checkall, audit), so
// the median of a class's requests of all modes falls in a gap between the
// modes' clusters and jumps with the few requests that tip it; the median
// of each mode, and their mean, do not.
func classLatency(samples []sample, class string) float64 {
	byMode := map[string][]float64{}
	for _, s := range samples {
		if s.class == class {
			byMode[s.mode] = append(byMode[s.mode], s.ms/1000)
		}
	}
	logSum, n := 0.0, 0
	for _, mode := range server.Modes {
		if xs := byMode[mode]; len(xs) > 0 {
			logSum += math.Log(median(xs))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// checkParity serves a sample of the pool — parityPerMode requests of
// each mode, each over a freshly α-renamed copy so that neither side has
// seen it — and holds every served record line byte-identical to
// `susc <mode> FILE -json` on the same spec, exit code included. check
// and checkall print indented JSON, compared after compaction.
func checkParity(cfg config, dir string, env *serveEnv, client *http.Client, ck *checker, rng *rand.Rand) error {
	for i, s := range env.pool {
		for k, mode := range server.Modes {
			if (i+k)%len(env.pool) >= parityPerMode {
				continue
			}
			r := hotelsRequest(classCold, mode, s.renamed(fmt.Sprintf("p%dx%d", i, k)), rng.Intn(len(s.clients)))
			name := fmt.Sprintf("parity%d-%s.susc", i, mode)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(r.src), 0o644); err != nil {
				return err
			}
			r.query.Set("file", name)
			resp, err := post(client, env.base, r)
			if err != nil {
				ck.check("parity "+mode, "transport: "+err.Error())
				continue
			}
			if !ck.check("parity "+mode+" known answer", r.expect(resp)) {
				continue
			}
			inv, err := runSusc(cfg, dir, append([]string{mode, name, "-json"}, r.cliArgs...)...)
			if err != nil {
				return err
			}
			ck.check("parity "+mode, parityProblem(resp, inv))
		}
	}
	return nil
}

func parityProblem(resp *response, inv invocation) string {
	if resp.done == nil || resp.done.Exit != inv.exit {
		return fmt.Sprintf("served exit %v, CLI exit %d", resp.done, inv.exit)
	}
	served := bytes.Join(resp.records, []byte("\n"))
	cli := bytes.TrimRight(inv.stdout, "\n")
	if len(resp.records) == 1 && bytes.HasPrefix(cli, []byte("{\n")) {
		var buf bytes.Buffer
		if err := json.Compact(&buf, cli); err != nil {
			return err.Error()
		}
		cli = buf.Bytes()
	}
	if !bytes.Equal(served, cli) {
		return fmt.Sprintf("served records differ from the CLI's:\n%.200s\n%.200s", served, cli)
	}
	return ""
}
