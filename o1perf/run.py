#!/usr/bin/env python3
"""Build and run the o1perf benchmark from the root of a checkout.

    python3 o1perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

o1perf/ is a Go module of its own that imports the repository's
packages through a replace directive. This script builds it into
.bench_build/ and runs it with the given arguments from the checkout
root. The Go build cache, temporary files and any state the toolchain
keeps are placed under .bench_build/ as well, so nothing is written
outside the checkout. When the build or the run fails, the script exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("o1perf: run from the root of a checkout (no go.mod here)", file=sys.stderr)
        return 2

    dirs = {name: os.path.join(build, name) for name in ("gocache", "tmp", "home", "gopath")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": dirs["gocache"],
        "GOTMPDIR": dirs["tmp"],
        "TMPDIR": dirs["tmp"],
        "HOME": dirs["home"],
        "XDG_CONFIG_HOME": os.path.join(dirs["home"], ".config"),
        "XDG_CACHE_HOME": os.path.join(dirs["home"], ".cache"),
        "GOPATH": dirs["gopath"],
        "GOMODCACHE": os.path.join(dirs["gopath"], "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)  # the benchmark pins it

    binary = os.path.join(build, "o1perf")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("o1perf: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
