#!/usr/bin/env python3
"""Build and run spio's end-to-end benchmark.

    python3 perfbench/run.py --workload read-local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench/ (a Go module of its own that uses the spio module at
the checkout root) into .bench_build/, then runs it from the checkout
root with the given arguments. The Go build cache, module cache and
config live under .bench_build/ too, so nothing is written outside the
checkout. Exits non-zero without a result line if the build fails, for
instance when the checkout holds no spio module.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin", "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    build = subprocess.run(
        ["go", "build", "-o", BIN, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([BIN, "--root", ROOT] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(sig, _frame):
        child.send_signal(sig)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
