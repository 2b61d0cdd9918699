#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the checkout's sources
into .bench_build/, with every Go cache and temporary directory kept
under .bench_build/ as well, and then replaces this process.  Arguments
are passed through unchanged; see main.go for the flags.  A failed build
exits with status 1 and prints no result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update({
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false -mod=readonly",
    })
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
