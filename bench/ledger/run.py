#!/usr/bin/env python3
"""Builds dmv_ledger from source and runs it.

Usage (from the repository root):

  python3 bench/ledger/run.py --workload drag-hdiff --seed 1 \\
      --seconds 24 --trace 0
  python3 bench/ledger/run.py --all        every workload, each in a process
  python3 bench/ledger/run.py --smoke      toy sizes, all workloads, < 10 s
  python3 bench/ledger/run.py --reference  rewrite golden.json
  python3 bench/ledger/run.py --baseline   rewrite baseline_seed1.json

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; results and Chrome traces go to <build>/ledger-results.
The last line on stdout is the run's JSON result (see README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["drag-hdiff", "explore-bert", "classroom-hdiff", "revisit-disk"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the dmv sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(build_root(), "ledger")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "dmv_ledger",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dmv_ledger")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True)
        return commit.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.join("bench", "ledger")):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    results = os.path.join(build_root(), "ledger-results")
    os.makedirs(results, exist_ok=True)
    pid = str(os.getpid())
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{trace}-{pid}")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--golden", os.path.join(HERE, "golden.json"),
               "--benchmark", os.path.join(ROOT, "BENCHMARK.json"),
               "--commit", source_id(), "--out", stem + ".json",
               "--work-dir", os.path.join(build_root(), "ledger-work", pid)]
    if trace:
        command += ["--trace-file", stem + ".trace.json"]
    command += list(extra)
    status = subprocess.run(command, cwd=ROOT).returncode
    return status, stem + ".json"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--reference", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.smoke:
        sys.exit(subprocess.run([binary, "--smoke"], cwd=ROOT).returncode)
    if args.reference:
        golden = os.path.join(HERE, "golden.json")
        sys.exit(subprocess.run([binary, "--reference", "--golden-out", golden],
                                cwd=ROOT).returncode)
    if args.baseline or args.all:
        documents, status = [], 0
        seed = 1 if args.baseline else args.seed
        extra = ["--baseline"] if args.baseline else []
        for workload in WORKLOADS:
            for trace in ([0, 1] if args.baseline else [args.trace]):
                code, path = run_workload(binary, workload, seed, args.seconds,
                                          trace, extra)
                status = max(status, code)
                if code == 0:
                    with open(path) as handle:
                        documents.append(json.load(handle))
        if args.baseline:
            if status != 0:
                fail("baseline not written: a run failed")
            with open(os.path.join(HERE, "baseline_seed1.json"), "w") as out:
                json.dump({"schema": "dmv-ledger-baseline/1",
                           "results": documents}, out, indent=1, sort_keys=True)
                out.write("\n")
        sys.exit(status)
    if args.workload is None:
        parser.error("--workload is required, or one of --all, --smoke, "
                     "--reference, --baseline")
    status, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.exit(status)


if __name__ == "__main__":
    main()
