package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/service"
)

// Request kinds of the closed-loop mix.
const (
	kindHitPost = iota // POST /v1/jobs of a cached spec
	kindHitGet         // GET /v1/jobs/{hash} of a cached spec
	kindCold           // POST /v1/jobs of a never-seen spec
	kindRefresh        // POST /v1/jobs?refresh=1 of a cached flat-engine spec
	kindSweep          // POST /v1/sweep over a warmed grid
	numKinds
)

var kindNames = [numKinds]string{"hit", "hit", "miss", "refresh", "sweep"}

// Per client and round: hit POSTs and GETs, cold jobs (one per engine), one
// refresh and one sweep.
const (
	roundHitPosts = 24
	roundHitGets  = 24
)

// entry is one warmed spec: its request body and the body its miss
// returned, which every later hit and refresh must reproduce byte for byte.
type entry struct {
	spec service.JobSpec
	req  []byte
	hash string
	resp []byte
}

// sweepEntry is one warmed sweep grid.
type sweepEntry struct {
	req  []byte
	resp []byte
}

// servePlan is the seed-generated input of the serve mix.
type servePlan struct {
	hits    []*entry
	refresh [2][]*entry // per client, so no two requests race on one refresh
	sweeps  [2]*sweepEntry
	seed    int64
}

// machine draws small L, o, g for a spec. The values change the simulated
// times, not the host cost of a job.
func machine(rng *rand.Rand, p int) service.MachineSpec {
	o := 1 + rng.Int63n(3)
	return service.MachineSpec{P: p, L: 2 + rng.Int63n(10), O: o, G: o + rng.Int63n(4)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// hitTemplates are the programs of the cached set, each at a small size.
var hitTemplates = []service.JobSpec{
	{Program: "broadcast", Machine: service.MachineSpec{P: 128}},
	{Program: "sum", N: 200, Machine: service.MachineSpec{P: 16}},
	{Program: "alltoall", N: 2, Machine: service.MachineSpec{P: 16}},
	{Program: "pingpong", N: 10, Machine: service.MachineSpec{P: 2}},
	{Program: "chain", N: 8, Machine: service.MachineSpec{P: 16}},
	{Program: "binomial", N: 8, Machine: service.MachineSpec{P: 16}},
	{Program: "bitonic", Machine: service.MachineSpec{P: 16}},
	{Program: "fftremap", N: 256, Machine: service.MachineSpec{P: 8}},
}

func newServePlan(seed int64) *servePlan {
	rng := rand.New(rand.NewSource(seed))
	pl := &servePlan{seed: seed}
	for _, engine := range []string{"goroutine", "flat"} {
		for _, t := range hitTemplates {
			s := t
			s.Engine = engine
			s.Machine = machine(rng, t.Machine.P)
			pl.hits = append(pl.hits, &entry{spec: s, req: mustJSON(s)})
		}
	}
	for c := range pl.refresh {
		for _, t := range []service.JobSpec{
			{Program: "broadcast", Machine: service.MachineSpec{P: 1024}},
			{Program: "alltoall", N: 2, Machine: service.MachineSpec{P: 32}},
		} {
			s := t
			s.Engine = "flat"
			s.Machine = machine(rng, t.Machine.P)
			s.Seed = int64(10 + c) // the clients' refresh sets never share a spec
			pl.refresh[c] = append(pl.refresh[c], &entry{spec: s, req: mustJSON(s)})
		}
	}
	bm := machine(rng, 64)
	pl.sweeps[0] = &sweepEntry{req: mustJSON(service.SweepRequest{
		Base: service.JobSpec{Program: "broadcast", Engine: "goroutine", Machine: bm},
		Axes: service.SweepAxes{L: []int64{bm.L, bm.L + 4}, G: []int64{bm.G, bm.G + 2}},
	})}
	am := machine(rng, 16)
	pl.sweeps[1] = &sweepEntry{req: mustJSON(service.SweepRequest{
		Base: service.JobSpec{Program: "alltoall", N: 2, Engine: "flat", Machine: am},
		Axes: service.SweepAxes{P: []int{8, 16}, O: []int64{am.O, am.O + 1}},
	})}
	return pl
}

// coldSpec is the j-th never-seen spec of a round for a client: one per
// engine, made unique by the machine seed (which moves the hash, not the
// work, since the runs have no jitter).
func coldSpec(rng *rand.Rand, unique int64, client, j int) service.JobSpec {
	var s service.JobSpec
	switch {
	case client == 0 && j == 0:
		s = service.JobSpec{Program: "broadcast", Engine: "goroutine", Machine: machine(rng, 256)}
	case client == 0:
		s = service.JobSpec{Program: "alltoall", N: 4, Engine: "flat", Machine: machine(rng, 32)}
	case j == 0:
		s = service.JobSpec{Program: "alltoall", N: 4, Engine: "goroutine", Machine: machine(rng, 16)}
	default:
		s = service.JobSpec{Program: "broadcast", Engine: "flat", Machine: machine(rng, 4096)}
	}
	s.Seed = unique
	return s
}

// checkBody verifies a job body against properties the method must have,
// computed apart from the daemon: a broadcast finishes at core's analytic
// optimum, a summation's root counts its all-ones inputs and finishes at
// its deadline, and the collectives deliver everything they must.
func checkBody(spec service.JobSpec, body []byte) error {
	resp, err := service.DecodeResponse(body)
	if err != nil {
		return err
	}
	m := spec.Machine
	out := resp.Output
	P, N := float64(m.P), float64(spec.N)
	switch spec.Program {
	case "broadcast":
		want := core.BroadcastTime(core.Params{P: m.P, L: m.L, O: m.O, G: m.G})
		if resp.Result.Time != want {
			return fmt.Errorf("broadcast time %d, core.BroadcastTime %d", resp.Result.Time, want)
		}
		if out["reached"] != P {
			return fmt.Errorf("broadcast reached %v of %d", out["reached"], m.P)
		}
	case "sum":
		if out["root"] != out["values"] || out["root_ok"] != 1 || float64(resp.Result.Time) != out["predicted_finish"] {
			return fmt.Errorf("sum output %v at time %d", out, resp.Result.Time)
		}
	case "alltoall":
		if out["received"] != P*(P-1)*N {
			return fmt.Errorf("alltoall received %v, want %v", out["received"], P*(P-1)*N)
		}
	case "pingpong":
		if out["rounds"] != N {
			return fmt.Errorf("pingpong rounds %v, want %v", out["rounds"], N)
		}
	case "chain", "binomial":
		if out["complete"] != 1 || out["received"] != P*N {
			return fmt.Errorf("%s output %v", spec.Program, out)
		}
	case "bitonic":
		if out["sorted"] != 1 {
			return fmt.Errorf("bitonic not sorted")
		}
	case "fftremap":
		if out["placed"] != out["rows"] {
			return fmt.Errorf("fftremap output %v", out)
		}
	}
	return nil
}

// daemon is one logpsimd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon starts logpsimd on an ephemeral loopback port and waits for
// its "listening on" line.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "logpsimd listening on "); ok && !announced {
				announced = true
				addr <- rest
			}
		}
	}()
	select {
	case d.base = <-addr:
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	d.stop()
	return nil, errors.New("logpsimd did not announce its address")
}

// stop kills the daemon and waits for it.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	<-d.done
}

// sample is one timed request.
type sample struct {
	kind   int
	lat    time.Duration
	stages map[string]float64 // X-Logpsimd-Timing stages in µs
}

// clientLog is what one client goroutine collects; merged after each round.
type clientLog struct {
	attempted, failed int64
	refreshes         int64
	errs              []string
	hashes            []string
	samples           []sample
}

func (l *clientLog) fail(format string, args ...any) {
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

// session drives one daemon.
type session struct {
	d      *daemon
	plan   *servePlan
	client *http.Client
	rngs   [2]*rand.Rand
	unique int64
	hashes map[string]bool
	refr   int64
}

func newSession(d *daemon, plan *servePlan) *session {
	s := &session{d: d, plan: plan, hashes: map[string]bool{}, unique: 1000,
		client: &http.Client{Timeout: 60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}}
	for c := range s.rngs {
		s.rngs[c] = rand.New(rand.NewSource(plan.seed*7919 + int64(c)))
	}
	return s
}

// do sends one request and reads the whole reply.
func (s *session) do(method, path string, body []byte) (*http.Response, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, s.d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return resp, out, lat, err
}

// warm submits every cached spec, refresh spec and sweep grid once, cold,
// recording the bodies the closed loop must reproduce.
func (s *session) warm(log *clientLog) {
	all := append(append(append([]*entry(nil), s.plan.hits...), s.plan.refresh[0]...), s.plan.refresh[1]...)
	for _, e := range all {
		log.attempted++
		resp, body, _, err := s.do("POST", "/v1/jobs", e.req)
		if err != nil {
			log.failed++
			log.fail("warm-up: %v", err)
			continue
		}
		if err := checkBody(e.spec, body); err != nil {
			log.fail("warm-up %s: %v", e.spec.Program, err)
		}
		e.hash, e.resp = resp.Header.Get("X-Logpsimd-Spec-Hash"), body
		log.hashes = append(log.hashes, e.hash)
	}
	for _, sw := range s.plan.sweeps {
		log.attempted++
		_, body, _, err := s.do("POST", "/v1/sweep", sw.req)
		if err != nil {
			log.failed++
			log.fail("warm-up sweep: %v", err)
			continue
		}
		sw.resp = body
		var sr service.SweepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			log.fail("warm-up sweep: %v", err)
		}
		for _, p := range sr.Points {
			log.hashes = append(log.hashes, p.SpecHash)
		}
	}
}

// op is one request of a client's round.
type op struct {
	kind  int
	e     *entry
	cold  service.JobSpec
	sweep *sweepEntry
}

// roundOps builds a client's shuffled request list for one round.
func (s *session) roundOps(client, round int) []op {
	rng := s.rngs[client]
	var ops []op
	for i := 0; i < roundHitPosts; i++ {
		ops = append(ops, op{kind: kindHitPost, e: s.plan.hits[rng.Intn(len(s.plan.hits))]})
	}
	for i := 0; i < roundHitGets; i++ {
		ops = append(ops, op{kind: kindHitGet, e: s.plan.hits[rng.Intn(len(s.plan.hits))]})
	}
	for j := 0; j < 2; j++ {
		s.unique++
		ops = append(ops, op{kind: kindCold, cold: coldSpec(rng, s.unique*2+int64(client), client, j)})
	}
	refr := s.plan.refresh[client]
	ops = append(ops, op{kind: kindRefresh, e: refr[round%len(refr)]})
	ops = append(ops, op{kind: kindSweep, sweep: s.plan.sweeps[client]})
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// exec sends one op and checks its reply.
func (s *session) exec(log *clientLog, o op) {
	log.attempted++
	var (
		resp *http.Response
		body []byte
		lat  time.Duration
		err  error
		want = "hit"
	)
	switch o.kind {
	case kindHitPost:
		resp, body, lat, err = s.do("POST", "/v1/jobs", o.e.req)
	case kindHitGet:
		resp, body, lat, err = s.do("GET", "/v1/jobs/"+o.e.hash, nil)
	case kindCold:
		want = "miss"
		resp, body, lat, err = s.do("POST", "/v1/jobs", mustJSON(o.cold))
	case kindRefresh:
		want = "miss"
		log.refreshes++
		resp, body, lat, err = s.do("POST", "/v1/jobs?refresh=1", o.e.req)
	case kindSweep:
		want = ""
		resp, body, lat, err = s.do("POST", "/v1/sweep", o.sweep.req)
	}
	if err != nil {
		log.failed++
		log.fail("%s: %v", kindNames[o.kind], err)
		return
	}
	if got := resp.Header.Get("X-Logpsimd-Cache"); got != want {
		log.fail("%s: X-Logpsimd-Cache %q, want %q", kindNames[o.kind], got, want)
	}
	switch o.kind {
	case kindCold:
		if err := checkBody(o.cold, body); err != nil {
			log.fail("cold %s: %v", o.cold.Program, err)
		}
		log.hashes = append(log.hashes, resp.Header.Get("X-Logpsimd-Spec-Hash"))
	case kindSweep:
		if !bytes.Equal(body, o.sweep.resp) {
			log.fail("sweep body differs from its first reply")
		}
	default:
		if !bytes.Equal(body, o.e.resp) {
			log.fail("%s body differs from the body its miss returned", kindNames[o.kind])
		}
	}
	log.samples = append(log.samples, sample{kind: o.kind, lat: lat,
		stages: parseTiming(resp.Header.Get("X-Logpsimd-Timing"))})
}

// parseTiming reads "decode;dur=0.012, normalize;dur=0.003" into µs.
func parseTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if ms, err := strconv.ParseFloat(dur, 64); err == nil {
			out[name] = ms * 1000
		}
	}
	return out
}

// loopResult is the timed phase's outcome.
type loopResult struct {
	rounds  []time.Duration
	samples []sample
}

// loop runs whole closed-loop rounds: the clients each work through their
// round's list, waiting for every reply, and the round ends when both are
// done.
func (s *session) loop(r *run, rounds int) loopResult {
	clients := min(2, runtime.NumCPU())
	var out loopResult
	for round := 0; round < rounds; round++ {
		if r.ctx.Err() != nil {
			return out
		}
		lists := make([][]op, clients)
		for c := range lists {
			lists[c] = s.roundOps(c, round)
		}
		logs := make([]clientLog, clients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := range lists {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, o := range lists[c] {
					s.exec(&logs[c], o)
				}
			}(c)
		}
		wg.Wait()
		out.rounds = append(out.rounds, time.Since(t0))
		for c := range logs {
			s.merge(r, &logs[c])
			out.samples = append(out.samples, logs[c].samples...)
		}
	}
	return out
}

// merge folds a client's log into the run.
func (s *session) merge(r *run, l *clientLog) {
	r.attempted += l.attempted
	r.failed += l.failed
	s.refr += l.refreshes
	for _, h := range l.hashes {
		s.hashes[h] = true
	}
	for _, e := range l.errs {
		r.fail("%s", e)
	}
}

// stats reads /v1/stats and checks that the daemon ran exactly one
// simulation per distinct spec plus one per refresh.
func (s *session) stats(r *run) service.ServerStats {
	var st service.ServerStats
	_, body, _, err := s.do("GET", "/v1/stats", nil)
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		r.fail("stats: %v", err)
		return st
	}
	if want := int64(len(s.hashes)) + s.refr; st.JobsRun != want {
		r.fail("jobs_run %d, want %d distinct specs + %d refreshes = %d", st.JobsRun, len(s.hashes), s.refr, want)
	}
	return st
}

// setUpDaemon starts a daemon and warms its cache.
func setUpDaemon(r *run, plan *servePlan) *session {
	d, err := startDaemon(filepath.Join(r.bindir, "logpsimd"))
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	s := newSession(d, plan)
	var log clientLog
	s.warm(&log)
	s.merge(r, &log)
	return s
}
