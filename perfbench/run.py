#!/usr/bin/env python3
"""Build and run the streamgate host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness in release mode, offline, into CARGO_TARGET_DIR (default
.bench_build), then runs it with the same arguments. Build output goes to
standard error; the harness prints its result object as the last line of
standard output and writes its detail and span files under perfbench/out.
Exits non-zero, printing no result, when the harness cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "streamgate-perfbench")
    # Replace this process with the harness, so no child outlives a kill.
    os.execve(exe, [exe, *sys.argv[1:], "--out", os.path.join(HERE, "out")], env)


if __name__ == "__main__":
    sys.exit(main())
