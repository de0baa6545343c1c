#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `tnm` binary (the serve daemon and the distributed workers)
and the `perfbench` binary from source in release mode, then runs the
workload. The build goes to $CARGO_TARGET_DIR, `.bench_build` at the
root of the checkout when unset; scratch files go to a directory under
it that is removed when the run ends. The last line of standard output
is the run's JSON record. Exits non-zero, without a record, when the
build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--locked", "-p", "tnm-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--locked",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the record.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    # Spilled shards go to the system temp directory: keep them in the
    # work directory, inside the checkout.
    env["TMPDIR"] = work
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--tnm", os.path.join(release, "tnm"), "--work", work]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
