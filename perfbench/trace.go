package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/experiments"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/network"
	"github.com/logp-model/logp/internal/progs"
	"github.com/logp-model/logp/internal/service"
)

// experimentIDs are the catalog entries timed alone in the traced run: the
// ones that take measurable time at scale 1.
var experimentIDs = []string{"fig6", "fig7", "fig8", "netsat", "patterns", "saturation",
	"models", "sort", "robustness", "bsp", "pscale", "shardbalance"}

// layerUnits declares the per-layer metrics beside experiments.<id>_s.
var layerUnits = map[string]string{
	"network.packets_per_s.under": "1/s",
	"network.packets_per_s.over":  "1/s",
	"network.max_queue":           "count",
	"logp.msgs_per_s":             "1/s",
	"core.min_sum_s":              "s",
	"progs.build_s":               "s",
	"flat.new_s":                  "s",
	"flat.msgs_per_s":             "1/s",
	"flat.msgs_per_s.seq":         "1/s",
	"flat.msgs_per_s.sharded":     "1/s",
	"flat.msgs_per_s.cap":         "1/s",
	"flat.barrier_wait_frac":      "ratio",
	"flat.windows":                "count",
	"service.decode_us":           "us",
	"service.normalize_us":        "us",
	"service.cache_us":            "us",
	"service.execute_us":          "us",
	"service.encode_us":           "us",
	"service.http_us":             "us",
	"service.run_ms":              "ms",
	"service.rps":                 "1/s",
	"service.hit_p50_ms":          "ms",
	"service.miss_p50_ms":         "ms",
	"service.sweep_p50_ms":        "ms",
	"service.hit_p99_ms":          "ms",
	"service.miss_p99_ms":         "ms",
	"service.sweep_p99_ms":        "ms",
	"service.hit_samples":         "count",
	"service.miss_samples":        "count",
	"service.sweep_samples":       "count",
	"service.cache_hit_rate":      "ratio",
	"service.pool_hit_rate":       "ratio",
	"service.jobs_run":            "count",
}

// runLayers is the traced run: it times calls into each layer's public
// functions on the workloads' inputs and reports every per-layer metric,
// whichever workload was named (the seed still picks the inputs).
func runLayers(r *run) {
	probes := []struct {
		name string
		f    func(*run)
	}{
		{"experiments", traceExperiments},
		{"network", traceNetwork},
		{"logp", traceLogP},
		{"core", traceCore},
		{"progs+flat", traceFlat},
		{"service", traceService},
	}
	for _, p := range probes {
		if r.ctx.Err() != nil {
			return
		}
		t0 := time.Now()
		p.f(r)
		fmt.Printf("# layer %s probed in %.3f s\n", p.name, time.Since(t0).Seconds())
	}
}

// traceExperiments runs each timed catalog entry alone at scale 1 and
// checks its report.
func traceExperiments(r *run) {
	byID := map[string]experiments.Entry{}
	for _, e := range experiments.Catalog() {
		byID[e.ID] = e
	}
	for _, id := range experimentIDs {
		e, ok := byID[id]
		if !ok {
			r.fail("experiment %s is not in the catalog", id)
			continue
		}
		r.attempted++
		t0 := time.Now()
		rep := e.Run(1)
		r.set("experiments."+id+"_s", time.Since(t0).Seconds())
		for _, c := range rep.Failed() {
			r.fail("%s: %s — %s", id, c.Name, c.Detail)
		}
	}
}

// traceNetwork calls network.RunLoad directly on the patterns and netsat
// grids. Each (topology, pattern) sweep is split at its knee: loads below
// it are "under", the knee and past it "over", where the backlog grows.
func traceNetwork(r *run) {
	type sweep struct {
		top   *network.Topology
		cfg   network.LoadConfig
		loads []float64
	}
	patterns := network.LoadConfig{RouterDelay: 2, Horizon: 3000, Warmup: 500, Seed: 11}
	netsat := network.LoadConfig{RouterDelay: 2, Pattern: network.UniformTraffic, Horizon: 3000, Warmup: 500, Seed: 42}
	var sweeps []sweep
	for _, top := range []*network.Topology{network.Mesh2D(8, 8, false), network.Butterfly(6)} {
		for _, pat := range []network.TrafficPattern{network.ShiftTraffic, network.UniformTraffic,
			network.BitReverseTraffic, network.TransposeTraffic} {
			c := patterns
			c.Pattern = pat
			sweeps = append(sweeps, sweep{top, c, []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9}})
		}
	}
	for _, top := range []*network.Topology{network.Mesh2D(8, 8, false), network.FatTree(4, 3)} {
		sweeps = append(sweeps, sweep{top, netsat, []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9}})
	}
	var pkts, secs [2]float64 // [under, over]
	maxQueue := 0
	for _, sw := range sweeps {
		res := make([]network.LoadResult, len(sw.loads))
		walls := make([]float64, len(sw.loads))
		for i, load := range sw.loads {
			c := sw.cfg
			c.Load = load
			r.attempted++
			t0 := time.Now()
			lr, err := network.RunLoad(sw.top, c)
			walls[i] = time.Since(t0).Seconds()
			if err != nil {
				r.failed++
				r.fail("RunLoad %s: %v", sw.top.Name, err)
				return
			}
			if lr.Delivered <= 0 {
				r.fail("RunLoad %s load %v delivered nothing", sw.top.Name, load)
			}
			res[i] = lr
			maxQueue = max(maxQueue, lr.MaxQueue)
		}
		knee := network.SaturationLoad(res)
		for i, lr := range res {
			side := 0
			if knee == knee && lr.Load >= knee { // knee is NaN when never saturated
				side = 1
			}
			pkts[side] += float64(lr.Delivered)
			secs[side] += walls[i]
		}
	}
	r.set("network.packets_per_s.under", pkts[0]/secs[0])
	r.set("network.packets_per_s.over", pkts[1]/secs[1])
	r.set("network.max_queue", float64(maxQueue))
}

// traceLogP times the goroutine engine on an all-to-all, the daemon's
// default engine.
func traceLogP(r *run) {
	p := core.Params{P: 128, L: 6, O: 2, G: 4}
	var rates []float64
	for i := 0; i < 3; i++ {
		prog := progs.NewAllToAll(p.P, 4, 0, 1, true)
		r.attempted++
		t0 := time.Now()
		res, err := logp.RunProgram(logp.Config{Params: p}, prog)
		wall := time.Since(t0).Seconds()
		if err != nil {
			r.failed++
			r.fail("logp.RunProgram: %v", err)
			return
		}
		if want := p.P * (p.P - 1) * 4; res.Messages != want {
			r.fail("logp all-to-all delivered %d, want %d", res.Messages, want)
		}
		rates = append(rates, float64(res.Messages)/wall)
	}
	r.set("logp.msgs_per_s", median(rates))
}

// traceCore times core.MinSumTime on the models experiment's machines
// (n = 10^4, P = 128) and on the bigp summation input, summed.
func traceCore(r *run) {
	inputs := []struct {
		p core.Params
		n int64
	}{
		{core.Params{P: 128, L: 200, O: 66, G: 132}, 10000},
		{core.Params{P: 128, L: 20, O: 1, G: 4}, 10000},
		{sumParams, sumN},
	}
	total := 0.0
	for _, in := range inputs {
		r.attempted++
		t0 := time.Now()
		T := core.MinSumTime(in.p, in.n)
		total += time.Since(t0).Seconds()
		// Minimality: capacity reaches n at T and not one cycle earlier.
		if core.SumCapacity(in.p, T) < in.n || core.SumCapacity(in.p, T-1) >= in.n {
			r.fail("MinSumTime(%v, %d) = %d is not the least sufficient deadline", in.p, in.n, T)
		}
	}
	r.set("core.min_sum_s", total)
}

// traceFlat times progs.Build and flat.New on the bigp inputs, then runs
// every bigp leg with the flight recorder on the sharded ones, reading the
// recorder on the last of the timed repetitions.
func traceFlat(r *run) {
	in := newBigPInputs(r.seed)
	build := 0.0
	for _, b := range []struct {
		name string
		p    core.Params
		a    progs.Args
	}{
		{"broadcast", bcastParams, progs.Args{}},
		{"alltoall", a2aParams, progs.Args{N: a2aPerDst, Work: in.work, Staggered: true}},
		{"sum", sumParams, progs.Args{N: int(sumN)}},
	} {
		r.attempted++
		t0 := time.Now()
		_, err := progs.Build(b.name, b.p, b.a)
		build += time.Since(t0).Seconds()
		if err != nil {
			r.failed++
			r.fail("progs.Build %s: %v", b.name, err)
		}
	}
	r.set("progs.build_s", build)

	legs, err := bigpLegs(in)
	if err != nil {
		r.fail("bigp legs: %v", err)
		return
	}
	// flat.New alone: a second machine on each leg's program, never run
	// (New only stores the program).
	newS := 0.0
	for _, l := range legs {
		t0 := time.Now()
		_, err := flat.New(l.m.Config(), l.prog, l.shards)
		newS += time.Since(t0).Seconds()
		if err != nil {
			r.fail("flat.New %s: %v", l.name, err)
		}
	}
	r.set("flat.new_s", newS)

	// One untimed warm Run per leg, as the bigp set-up does, so lazy
	// allocation in a machine's first Run is in none of the figures below.
	for _, l := range legs {
		if l.shards > 1 {
			l.m.EnableFlightRecorder()
		}
		runLeg(r, l)
	}
	const reps = 3
	var msgs, secs [4]float64 // all, seq, sharded, cap
	var busy, wait, windows int64
	for rep := 0; rep < reps; rep++ {
		for _, l := range legs {
			t0 := time.Now()
			runLeg(r, l)
			wall := time.Since(t0).Seconds()
			n := float64(l.res.Messages)
			msgs[0] += n
			secs[0] += wall
			switch {
			case l.cap:
				msgs[3] += n
				secs[3] += wall
			case l.shards > 1:
				msgs[2] += n
				secs[2] += wall
			default:
				msgs[1] += n
				secs[1] += wall
			}
			// ShardStats hold the latest Run only.
			if rep == reps-1 && l.shards > 1 {
				for _, st := range l.m.ShardStats() {
					busy += st.BusyNs
					wait += st.BarrierWaitNs
				}
				windows += l.m.ShardStats()[0].Windows
			}
		}
	}
	r.set("flat.msgs_per_s", msgs[0]/secs[0])
	r.set("flat.msgs_per_s.seq", msgs[1]/secs[1])
	r.set("flat.msgs_per_s.sharded", msgs[2]/secs[2])
	r.set("flat.msgs_per_s.cap", msgs[3]/secs[3])
	r.set("flat.barrier_wait_frac", float64(wait)/float64(busy+wait))
	r.set("flat.windows", float64(windows))
}

// traceService runs the serve mix against one traced daemon, reading the
// per-stage timings the daemon reports, and times service.Run in-process on
// the same kind of cold specs. The mix is not an end-to-end workload: its
// latency is bound by thread wake-ups, which move with the CPU other
// tenants of a shared host steal (on a 2-vCPU VM, median round 0.022 s when
// calm, 0.040 s at 16% steal).
func traceService(r *run) {
	plan := newServePlan(r.seed)
	s := setUpDaemon(r, plan)
	if s == nil {
		return
	}
	// 500 rounds give each kind at least a thousand samples, so every p99
	// has ten beyond it. The clients only wait on sockets; one P keeps the
	// load generator's scheduler from competing with the daemon for the
	// cores.
	procs := runtime.GOMAXPROCS(1)
	res := s.loop(r, 500)
	runtime.GOMAXPROCS(procs)
	st := s.stats(r)
	s.d.stop()

	perRound := float64(len(res.samples)) / float64(len(res.rounds))
	var rps []float64
	for _, d := range res.rounds {
		rps = append(rps, perRound/d.Seconds())
	}
	r.set("service.rps", median(rps))

	lat := map[string][]float64{}
	stage := map[string][]float64{}
	var httpUS []float64
	for _, sm := range res.samples {
		kind := kindNames[sm.kind]
		if kind == "refresh" {
			kind = "miss"
		}
		lat[kind] = append(lat[kind], float64(sm.lat)/float64(time.Millisecond))
		span := 0.0
		for name, us := range sm.stages {
			span += us
			if (kind == "hit") == (name == "decode" || name == "normalize" || name == "cache") {
				stage[name] = append(stage[name], us)
			}
		}
		if kind == "hit" {
			httpUS = append(httpUS, float64(sm.lat)/float64(time.Microsecond)-span)
		}
	}
	for _, kind := range []string{"hit", "miss", "sweep"} {
		r.set("service."+kind+"_p50_ms", quantile(lat[kind], 0.5))
		r.set("service."+kind+"_p99_ms", quantile(lat[kind], 0.99))
		r.set("service."+kind+"_samples", float64(len(lat[kind])))
	}
	for _, name := range []string{"decode", "normalize", "cache", "execute", "encode"} {
		r.set("service."+name+"_us", median(stage[name]))
	}
	r.set("service.http_us", median(httpUS))
	lookups := st.Cache.Hits + st.Cache.Misses
	r.set("service.cache_hit_rate", float64(st.Cache.Hits)/float64(lookups))
	r.set("service.pool_hit_rate", st.PoolHitRate)
	r.set("service.jobs_run", float64(st.JobsRun))

	// service.Run in-process on cold specs of the mix.
	rng := rand.New(rand.NewSource(r.seed))
	var runMS []float64
	for i := 0; i < 16; i++ {
		spec := coldSpec(rng, int64(i+2), i%2, (i/2)%2)
		r.attempted++
		t0 := time.Now()
		resp, err := service.Run(spec)
		runMS = append(runMS, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			r.failed++
			r.fail("service.Run: %v", err)
			continue
		}
		body, err := resp.Encode()
		if err == nil {
			err = checkBody(spec, body)
		}
		if err != nil {
			r.fail("service.Run %s: %v", spec.Program, err)
		}
	}
	r.set("service.run_ms", median(runMS))
}
