#!/usr/bin/env python3
"""Build and run the smartly benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the release `smartly` binary of the root workspace and the
benchmark package next to this file into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark with the given arguments. Build
output goes to standard error; the last line of standard output is the
result JSON. Exits non-zero when a build fails or an output is wrong.
"""

import hashlib
import os
import subprocess
import sys


def provenance_commit(root):
    """The git commit, or a hash of the sources when there is no git."""
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, root).split(os.sep)
            for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("run.py: run from the repository root (no Cargo.toml here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in [(os.path.join(root, "Cargo.toml"), ["--bin", "smartly"]),
                            (os.path.join(here, "Cargo.toml"), [])]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    env["PERFBENCH_COMMIT"] = provenance_commit(root)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "smartly-perfbench")] + sys.argv[1:] + [
        "--smartly-bin", os.path.join(release, "smartly")]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
