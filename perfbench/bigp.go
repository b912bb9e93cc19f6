package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/logp-model/logp/internal/collective"
	"github.com/logp-model/logp/internal/core"
	"github.com/logp-model/logp/internal/flat"
	"github.com/logp-model/logp/internal/logp"
	"github.com/logp-model/logp/internal/progs"
)

// The bigp inputs. The cost-bearing sizes are fixed so every seed measures
// the same amount of work; the seed picks only the broadcast root and the
// all-to-all's per-send compute, neither of which changes the event count.
var (
	// bcastParams is Fig. 3's machine (L=6, o=2, g=4) grown to 10^5
	// processors.
	bcastParams = core.Params{P: 100_000, L: 6, O: 2, G: 4}
	// a2aParams and a2aPerDst give P(P-1)N = 130,560 messages a leg.
	a2aParams = core.Params{P: 256, L: 6, O: 2, G: 4}
	a2aPerDst = 2
	// sumParams and sumN are Fig. 4's machine (L=5, o=2, g=4) at P=128,
	// the largest P whose optimal schedule builds in about a second.
	sumParams = core.Params{P: 128, L: 5, O: 2, G: 4}
	sumN      = int64(3000)
)

// bigpSetupReps is how many times the bigp set-up is timed; setup_s is the
// median and the last set-up's machines are the ones measured.
const bigpSetupReps = 5

// bigpInputs is what the seed generates.
type bigpInputs struct {
	root int   // broadcast root
	work int64 // all-to-all compute cycles before each send
}

func newBigPInputs(seed int64) bigpInputs {
	rng := rand.New(rand.NewSource(seed))
	return bigpInputs{root: rng.Intn(bcastParams.P), work: 1 + rng.Int63n(8)}
}

// leg is one machine the bigp workload re-runs every round.
type leg struct {
	name   string
	shards int
	cap    bool
	prog   logp.Program
	m      *flat.Machine
	check  func(res logp.Result) error
	// ref is the sequential leg with the same program and capacity setting;
	// a sharded leg must reproduce its simulated time and message count.
	ref *leg
	res logp.Result
}

// bigpLegs builds every leg: the schedules, the programs and the flat
// machines. It is the set-up the workload times (without the first runs).
func bigpLegs(in bigpInputs) ([]*leg, error) {
	var legs []*leg
	add := func(l *leg) { legs = append(legs, l) }

	sched, err := core.OptimalBroadcast(bcastParams, in.root)
	if err != nil {
		return nil, err
	}
	for _, cap := range []bool{false, true} {
		var seq *leg
		for _, shards := range []int{1, 2} {
			prog := progs.NewBroadcast(sched, 1, "datum")
			m, err := flat.New(logp.Config{Params: bcastParams, DisableCapacity: !cap}, prog, shards)
			if err != nil {
				return nil, err
			}
			l := &leg{name: legName("bcast", shards, cap), shards: shards, cap: cap, prog: prog, m: m, ref: seq,
				check: func(res logp.Result) error { return checkBroadcast(res, prog, sched) }}
			if shards == 1 {
				seq = l
			}
			add(l)
		}
	}

	want := a2aParams.P * (a2aParams.P - 1) * a2aPerDst
	for _, cap := range []bool{false, true} {
		var seq *leg
		for _, shards := range []int{1, 2} {
			prog := progs.NewAllToAll(a2aParams.P, a2aPerDst, in.work, 1, true)
			m, err := flat.New(logp.Config{Params: a2aParams, DisableCapacity: !cap}, prog, shards)
			if err != nil {
				return nil, err
			}
			l := &leg{name: legName("a2a", shards, cap), shards: shards, cap: cap, prog: prog, m: m, ref: seq,
				check: func(res logp.Result) error {
					got := 0
					for _, n := range prog.Received {
						got += n
					}
					if got != want || res.Messages != want {
						return fmt.Errorf("received %d (result %d), want P(P-1)N = %d", got, res.Messages, want)
					}
					return nil
				}}
			if shards == 1 {
				seq = l
			}
			add(l)
		}
	}

	deadline := core.MinSumTime(sumParams, sumN)
	ss, err := core.OptimalSummation(sumParams, deadline)
	if err != nil {
		return nil, err
	}
	ones := make([]float64, ss.TotalValues)
	for i := range ones {
		ones[i] = 1
	}
	dist, err := collective.DistributeInputs(ss, ones)
	if err != nil {
		return nil, err
	}
	sum := progs.NewSum(ss, 1, dist)
	m, err := flat.New(logp.Config{Params: sumParams}, sum, 1)
	if err != nil {
		return nil, err
	}
	add(&leg{name: "sum/seq/cap", shards: 1, cap: true, prog: sum, m: m,
		check: func(res logp.Result) error {
			if !sum.RootOK || sum.Root != float64(len(ones)) {
				return fmt.Errorf("root %v (ok=%v), want %d all-ones inputs", sum.Root, sum.RootOK, len(ones))
			}
			if res.Time != deadline {
				return fmt.Errorf("finish %d, want core.MinSumTime = %d", res.Time, deadline)
			}
			return nil
		}})
	return legs, nil
}

func legName(kind string, shards int, cap bool) string {
	mode, c := "seq", "nocap"
	if shards > 1 {
		mode = fmt.Sprintf("%dshard", shards)
	}
	if cap {
		c = "cap"
	}
	return kind + "/" + mode + "/" + c
}

// checkBroadcast: the simulated finish equals the schedule's analytic
// finish, the tree sends P-1 messages, and every processor holds the datum.
func checkBroadcast(res logp.Result, prog *progs.Broadcast, sched *core.BroadcastSchedule) error {
	if res.Time != sched.Finish {
		return fmt.Errorf("finish %d, want the schedule's analytic %d", res.Time, sched.Finish)
	}
	if res.Messages != bcastParams.P-1 {
		return fmt.Errorf("%d messages, want P-1 = %d", res.Messages, bcastParams.P-1)
	}
	for i, g := range prog.Got {
		if g != "datum" {
			return fmt.Errorf("processor %d not reached", i)
		}
	}
	return nil
}

// runLeg re-runs one leg's machine and checks its output. Legs run in
// order, so a sharded leg's sequential reference has already run.
func runLeg(r *run, l *leg) {
	r.attempted++
	res, err := l.m.Run()
	if err != nil {
		r.failed++
		r.fail("%s: %v", l.name, err)
		return
	}
	l.res = res
	if err := l.check(res); err != nil {
		r.fail("%s: %v", l.name, err)
	}
	if l.ref != nil && (res.Time != l.ref.res.Time || res.Messages != l.ref.res.Messages) {
		r.fail("%s: time %d msgs %d, sequential leg had time %d msgs %d",
			l.name, res.Time, res.Messages, l.ref.res.Time, l.ref.res.Messages)
	}
}

// runBigP measures large-P runs on the flat kernel. Set-up builds the
// schedules, programs and machines and runs each machine once (so lazy
// allocation moved from flat.New into the first Run still counts as
// set-up); setup_s is the median CPU time of a set-up. The timed rounds
// re-run every leg, as the daemon's machine pool does. wall_s is the sum
// over legs of each leg's lower-quartile time: on a shared two-core host a
// leg now and then waits out a descheduled worker or a busy neighbour, and
// such waits only ever add time. Across runs the sum of per-leg lower
// quartiles spreads about two thirds as much as the sum of medians.
func runBigP(r *run) {
	in := newBigPInputs(r.seed)
	var legs []*leg
	var setups []time.Duration
	for i := 0; i < bigpSetupReps; i++ {
		// Let the previous set-up's machines go before timing the next.
		legs = nil
		runtime.GC()
		c0 := selfCPU()
		var err error
		legs, err = bigpLegs(in)
		if err != nil {
			r.fail("bigp set-up: %v", err)
			return
		}
		for _, l := range legs {
			runLeg(r, l)
		}
		setups = append(setups, selfCPU()-c0)
	}

	legTimes := make([][]time.Duration, len(legs))
	var rounds, cpus []time.Duration
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < r.seconds {
		if r.ctx.Err() != nil {
			return
		}
		t0, c0 := time.Now(), selfCPU()
		for i, l := range legs {
			t1 := time.Now()
			runLeg(r, l)
			legTimes[i] = append(legTimes[i], time.Since(t1))
		}
		rounds = append(rounds, time.Since(t0))
		cpus = append(cpus, selfCPU()-c0)
	}
	logRounds("bigp", rounds)
	wall := 0.0
	for _, ts := range legTimes {
		wall += durQuantile(ts, 0.25, time.Second)
	}
	r.set("wall_s", wall)
	r.set("cpu_s", durMedian(cpus, time.Second))
	r.set("setup_s", durMedian(setups, time.Second))
}
