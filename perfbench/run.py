#!/usr/bin/env python3
"""Build and run the Fox Net benchmark.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The Go program in this directory is
built from source into .bench_build/ (its Go build cache lives there too,
so nothing is written outside the checkout), then run with the same
arguments. Its standard output passes through; its last line is the JSON
result. A build failure, or a run that outlives its time limit, exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BIN = os.path.join(OUT, "perfbench")

# The Go program ends a hung run itself; this limit only catches a
# program that cannot.
RUN_LIMIT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR=os.path.join(OUT, "tmp"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOTELEMETRY="off",
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
    )
    return env


def main(argv):
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", BIN, "."],
        cwd=HERE,
        env=go_env(),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--spans" not in args and "--workload" in args:
        workload = args[args.index("--workload") + 1]
        args += ["--spans", os.path.join(OUT, "spans-%s.jsonl" % workload)]
    # madvdontneed=0: the Go runtime hands freed heap pages back with
    # MADV_FREE, so a page the next round reuses is not faulted in again.
    # Each round starts with a forced collection, after which the
    # scavenger would otherwise return, and the round re-fault, a few
    # thousand pages: time spent in the host's page-fault path, not in
    # the stack.
    env = dict(os.environ)
    env["GODEBUG"] = ",".join(filter(None, [env.get("GODEBUG"), "madvdontneed=0"]))
    try:
        run = subprocess.run([BIN] + args, cwd=ROOT, env=env, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
