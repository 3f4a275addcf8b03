#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point_run --seed 1 --seconds 10 --trace 0

Builds `mjoin_cli` (the repository's release binary) and the benchmark
package in `perfbench/` into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs the benchmark with the host facts it records. Cargo's output goes
to standard error; the last line of standard output is the result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit: git's HEAD when the checkout is a repository, otherwise a
    SHA-256 over the source files the build reads."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("src", "crates", "examples"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.relpath(os.path.join(dirpath, f), ROOT) for f in sorted(filenames)]
    for rel in paths:
        full = os.path.join(ROOT, rel)
        if os.path.isfile(full):
            digest.update(rel.encode() + b"\0")
            with open(full, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()


def cargo_build(args, cwd):
    cmd = ["cargo", "build", "--release", "--offline", *args]
    try:
        done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"`{' '.join(cmd)}` did not run: {e}")
    if done.returncode != 0:
        fail(f"`{' '.join(cmd)}` failed with exit code {done.returncode}")


def main():
    for needed in ("Cargo.toml", "crates", "src", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"run from the root of an mjoin checkout: `{needed}` is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    cargo_build(["--bin", "mjoin_cli"], ROOT)
    cargo_build([], BENCH)
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    cmd = [
        os.path.join(target, "release", "mjoin-perfbench"),
        *sys.argv[1:],
        "--cli", os.path.join(target, "release", "mjoin_cli"),
        "--out", os.path.join(target, "perfbench"),
        "--rustc", rustc or "unknown",
        "--commit", source_id(),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
