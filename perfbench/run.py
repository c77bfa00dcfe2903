#!/usr/bin/env python3
"""Build and run the XDP end-to-end session benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ in Release mode (which
builds the XDP libraries from the checkout's src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is not
set; later runs rebuild incrementally. The harness's last stdout line is
the result JSON; a run record with the host fingerprint and every raw
sample is written under <build dir>/records/. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """Digest of the sources the harness is built from (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def repo_build_type():
    """CMAKE_BUILD_TYPE of the checkout's own build/ directory, if any: an
    empty one means that tree was configured without optimization."""
    cache = os.path.join(ROOT, "build", "CMakeCache.txt")
    if not os.path.exists(cache):
        return "absent"
    with open(cache, errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                value = line.split("=", 1)[1].strip()
                return value or "empty (unoptimized)"
    return "empty (unoptimized)"


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no XDP sources (src/) next to perfbench/; run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.log"), "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log.name, errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "xdp_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    records = os.path.join(build_dir, "records")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(records, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--record", record, "--commit", commit(),
           "--source-id", source_id(), "--repo-build-type", repo_build_type()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
