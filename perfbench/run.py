#!/usr/bin/env python3
"""Build the benchmark and the programs it drives from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures|bigp --seed N \
        --seconds S --trace 0|1

Everything is built into .bench_build/perfbench/ of the checkout, with the
Go build cache there too, so a run reads and writes only inside the
checkout. The first build compiles the standard library and takes a minute
or two; later runs reuse the cache. A failed build exits with its status
and prints nothing on standard output.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
MODULE = "github.com/logp-model/logp"


def build_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    """Build perfbench, logpsimd and figures into OUT/bin; return bin dir."""
    bindir = os.path.join(OUT, "bin")
    os.makedirs(bindir, exist_ok=True)
    cmd = ["go", "build", "-o", bindir + os.sep, ".",
           MODULE + "/cmd/logpsimd", MODULE + "/cmd/figures"]
    # Build output goes to stderr: stdout carries only the result.
    rc = subprocess.call(cmd, cwd=HERE, env=build_env(), stdout=sys.stderr)
    if rc != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(rc if rc > 0 else 1)
    return bindir


def main():
    bindir = build()
    exe = os.path.join(bindir, "perfbench")
    # Go's flag package reads --name value as -name value, so the
    # arguments pass through unchanged.
    os.execv(exe, [exe] + sys.argv[1:] + ["--bindir", bindir])


if __name__ == "__main__":
    main()
