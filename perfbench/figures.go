package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// figuresSetupReps is how many times the figures set-up is timed; setup_s
// is the median. One set-up takes about 2 ms of CPU, so 101 of them cost
// well under a second and keep the median of so short a time steady.
const figuresSetupReps = 101

// reportHeader matches the first line of each experiment's report.
var reportHeader = regexp.MustCompile(`(?m)^== ([A-Za-z0-9_.-]+): .* ==$`)

// runFigures runs the whole catalog at scale 1 exactly as a user does: the
// figures binary with no flags, one fresh process per round, so wall time
// and CPU time are the child's own. The catalog takes no input, so the seed
// selects nothing here. Set-up is the binary starting and listing its
// catalog (process start, package initialisation, catalog build), and
// setup_s is the median CPU time it takes.
func runFigures(r *run) {
	bin := filepath.Join(r.bindir, "figures")
	var setups []time.Duration
	var ids []string
	for i := 0; i < figuresSetupReps; i++ {
		cmd := exec.CommandContext(r.ctx, bin, "-list")
		out, err := cmd.Output()
		setups = append(setups, childCPU(cmd.ProcessState))
		if err != nil {
			r.fail("figures -list: %v", err)
			return
		}
		ids = strings.Fields(string(out))
	}
	if len(ids) == 0 {
		r.fail("figures -list printed no experiments")
		return
	}

	var walls, cpus []time.Duration
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < r.seconds {
		if r.ctx.Err() != nil {
			return
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(r.ctx, bin)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Run()
		wall := time.Since(t0)
		r.attempted += int64(len(ids))
		if reported := checkCatalog(r, stdout.String(), ids); reported < len(ids) {
			r.failed += int64(len(ids) - reported)
		}
		if err != nil {
			r.fail("figures exited with %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		walls = append(walls, wall)
		cpus = append(cpus, childCPU(cmd.ProcessState))
	}
	logRounds("figures", walls)
	r.set("wall_s", durMedian(walls, time.Second))
	r.set("cpu_s", durMedian(cpus, time.Second))
	r.set("setup_s", durMedian(setups, time.Second))
}

// checkCatalog verifies one catalog run's output: every listed experiment
// reported, in catalog order, and every check of every report passed. The
// checks encode the paper's figures (Fig. 3 = 24 cycles, Fig. 4 = 28, the
// knees), so a wrong analytic finish anywhere shows up as a [FAIL] line.
// It returns how many reports the run printed.
func checkCatalog(r *run, out string, ids []string) int {
	var got []string
	for _, m := range reportHeader.FindAllStringSubmatch(out, -1) {
		got = append(got, m[1])
	}
	if strings.Join(got, " ") != strings.Join(ids, " ") {
		r.fail("catalog reported %v, want %v", got, ids)
	}
	pass := 0
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "[PASS] "):
			pass++
		case strings.HasPrefix(line, "[FAIL] "):
			r.fail("figures: %s", line)
		}
	}
	if pass == 0 {
		r.fail("figures printed no passing checks")
	}
	return len(got)
}
