#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload wan-crowds --seed 1 --seconds 25 --trace 0

The Go program is built from the checkout's sources into .bench_build/
(build cache, module cache and Go's config directory included, so
nothing is written outside the checkout), then run with the same
arguments. Its standard output, whose last line is the JSON result,
passes through unchanged; the exit code is the program's. Without the
repository's go.mod next to perfbench/ the build fails and the script
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s: not a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"), env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
