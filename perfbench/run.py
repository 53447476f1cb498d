#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload, or all.

Usage, from the repository root:

    python3 perfbench/run.py --workload http_tenants --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The Go build cache, module cache and binary live in .bench_build/ at the
root, so the benchmark reads and writes nothing outside the checkout.
For one workload the last line of standard output is the result JSON;
"all" runs each workload of BENCHMARK.json in its own process, one after
the other, and prints each one's result line. The exit status is nonzero
when the build fails, an answer is wrong or accuracy falls below a floor.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def runs(args):
    """Yields the argument list of each program run that args ask for."""
    if "--workload" in args:
        i = args.index("--workload") + 1
        if i < len(args) and args[i] == "all":
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                names = [w["name"] for w in json.load(f)["workloads"]]
            for name in names:
                yield args[:i] + [name] + args[i + 1 :]
            return
    yield args


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOENV="off",
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    status = 0
    for args in runs(sys.argv[1:]):
        sys.stdout.flush()
        code = subprocess.run([binary] + args, cwd=ROOT, env=env).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
