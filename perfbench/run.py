#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload banking-backlog --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary. The binary is built from
source into .bench_build/ with the Go toolchain, whose caches and temporary
files are kept there too, so the run reads and writes only inside the
checkout. The binary's last line of standard output is the result line.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    src = os.path.join(root, "perfbench")
    binary = os.path.join(build, "perfbench-bin")
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "go-cache"), ("GOPATH", "go-path"),
                     ("GOMODCACHE", "go-path/pkg/mod"), ("GOTMPDIR", "go-tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")]:
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update({"GOPROXY": "off", "GOTOOLCHAIN": "local", "GOFLAGS": "",
                "GOWORK": "off", "GOENV": "off", "CGO_ENABLED": "0"})
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
