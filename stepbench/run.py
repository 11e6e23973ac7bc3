#!/usr/bin/env python3
"""Live training-step benchmark: build, run one workload, print the result.

Usage (from the root of a checkout):

    python3 stepbench/run.py --workload ep_nodrop --seed 1 --seconds 30 --trace 0
    python3 stepbench/run.py --all --seed 1 --seconds 30

The first form builds the `stepbench` package (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs one workload with one compute thread per
rank, and prints two lines: the run record (seed, nproc, ranks x threads,
shape, commit, sample counts) and, last, the result object with exactly
the keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones. Every
result is also saved under `.bench_out/runs/`, and a traced run writes
its spans to `.bench_out/spans/` as a Chrome trace.

`--all` runs every workload untraced and traced and prints every metric
by name with its unit.

Exits non-zero, without printing a result, when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ep_nodrop", "esp_mixtral", "skew_elastic"]
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175
# glibc malloc settings for every run: keep freed buffers in the heap
# instead of returning them to the OS. Under the defaults each ep_nodrop
# step faults 10-30k fresh pages per rank back in (~25-35% of the step),
# and how many depends on malloc's adaptive thresholds, which wander
# from run to run. See README.md, "Allocator".
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
}


def log(msg):
    print(f"stepbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"cargo build failed with code {done.returncode}")
    log(f"build ok in {time.monotonic() - started:.1f} s")
    return os.path.join(ROOT, target, "release", "stepbench")


def source_fingerprint():
    """The commit when the checkout is a git repository, and a hash of
    the sources the benchmark builds from either way."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "shims", "stepbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "target" and not d.startswith("."))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return commit, digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's full result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(OUT, "spans", f"{workload}-seed{seed}.json")]
    env = dict(os.environ, TENSOR_THREADS="1", **MALLOC_ENV)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed no result")
    result = json.loads(lines[-1])
    commit, tree = source_fingerprint()
    result["record"].update(commit=commit, source_hash=tree, malloc_env=MALLOC_ENV)
    for error in result.get("errors", []):
        log(f"check failed: {error}")
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    with open(os.path.join(OUT, "runs", name), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")

    try:
        binary = build()
        if args.all:
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    result = run_once(binary, workload, args.seed, args.seconds, trace)
                    ok = ok and result["correct"]
                    print(f"{workload} trace={trace} correct={result['correct']} "
                          f"attempted={result['attempted']} failed={result['failed']}")
                    for name, m in sorted(result["metrics"].items()):
                        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
            return 0 if ok else 1
        result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as err:
        log(str(err))
        return 1
    print("record " + json.dumps(result["record"], sort_keys=True))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
