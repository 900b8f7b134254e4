#!/usr/bin/env python3
"""The wsync benchmark: builds the simulator from source, runs one workload.

    python3 wsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures wsbench/CMakeLists.txt
(Release) into the build directory -- $CARGO_TARGET_DIR when set, else
.bench_build -- builds the wsync_bench driver, and runs the workload in a
child process whose peak resident memory it reads from wait4(). The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones. Build output and failed
checks go to stderr.

Workloads: catalog_sweep, wakeup_large_n, drift_hold (see BENCHMARK.json).
The first catalog_sweep run of a build also computes the catalog's
reference rows on the dense engine and one worker, and keeps them in the
build directory.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog_sweep", "wakeup_large_n", "drift_hold")
CHILD_TIMEOUT_S = 170


def fail(message):
    print("wsbench: " + message, file=sys.stderr, flush=True)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("wsync sources not found: %s is missing" % needed)
    # Compiler and driver temporaries stay inside the build directory.
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "wsync_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(bdir, "wsync_bench")


def run_child(command, stdout_path):
    """Runs `command` to completion; returns (exit code, peak RSS in KiB)."""
    with open(stdout_path, "w") as out:
        child = subprocess.Popen(command, stdout=out)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            child.kill()
            os.wait4(child.pid, 0)
            child.returncode = -9
            fail("timed out: " + " ".join(command))
        time.sleep(0.05)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss


def catalog_reference(binary, bdir, out_dir):
    """Reference rows for this build of the driver, made once."""
    stat = os.stat(binary)
    path = os.path.join(bdir, "catalog_reference_%d_%d.tsv"
                        % (stat.st_size, stat.st_mtime_ns))
    if not os.path.isfile(path):
        scratch = path + ".partial"
        code, _ = run_child([binary, "--make-reference", scratch,
                             "--out-dir", out_dir],
                            os.path.join(out_dir, "reference.out"))
        if code != 0:
            fail("computing the catalog reference failed (exit %d)" % code)
        os.replace(scratch, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "run", args.workload)
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    if args.workload == "catalog_sweep":
        command += ["--reference", catalog_reference(binary, bdir, out_dir)]
    stdout_path = os.path.join(out_dir, "result.out")
    code, peak_kib = run_child(command, stdout_path)
    if code != 0:
        fail("%s exited with %d" % (args.workload, code))
    with open(stdout_path) as produced:
        lines = [line for line in produced.read().splitlines() if line.strip()]
    if not lines:
        fail("%s printed no result" % args.workload)
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0,
                                            "unit": "MB"}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
