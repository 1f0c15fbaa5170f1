#!/usr/bin/env python3
"""Build and run the wCQ benchmark suite.

One workload (the form BENCHMARK.json's command takes):

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

prints per-instance lines and, last, one JSON line
{correct, attempted, failed, metrics}. It exits 0 whenever the run
completed; failures are reported in the JSON.

The whole suite (no --workload):

    python3 bench/suite/run.py [--seed 1[,2,...]] [--runs N] [--trace 1]
                               [--smoke] [--out FILE]

runs every workload (and, with --trace 1, every workload again traced,
plus the layer ladder), prints every metric with its unit, writes a
result JSON with a machine fingerprint, and exits 1 if any value was
lost, duplicated, corrupted, reordered or wrongly refused.

The program is compiled from this checkout's sources (include/wcq and
bench/suite) into .bench_build/suite/, keyed by a hash of the sources,
compiler and flags, so an edit always rebuilds.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
INCLUDE = os.path.join(ROOT, "include")
BUILD = os.path.join(ROOT, ".bench_build", "suite")
CXX = os.environ.get("CXX", "g++")
# The library's Release flags (see the root CMakeLists.txt).
FLAGS = ["-std=c++20", "-O3", "-DNDEBUG", "-pthread"]
if platform.machine() in ("x86_64", "AMD64", "amd64"):
    FLAGS.append("-mcx16")

WORKLOADS = ["pairwise_1t", "mixed_4t", "empty_poll_4t", "msg_openloop",
             "batch_boxed_4t"]
SMOKE_SECONDS = 0.3

CAS2_PROBE = """
#include <cstdint>
struct alignas(16) P { std::uint64_t a, b; };
int main() {
  P x{0, 0}; P e{0, 0}; P d{1, 1};
  return __atomic_compare_exchange(&x, &e, &d, false, 5, 5) ? 0 : 1;
}
"""


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    lib = os.path.join(INCLUDE, "wcq")
    if not os.path.isfile(os.path.join(lib, "queue.hpp")):
        fail(f"library headers not found under {lib}")
    files = [os.path.join(lib, f) for f in sorted(os.listdir(lib))
             if f.endswith(".hpp")]
    files += [os.path.join(HERE, f) for f in sorted(os.listdir(HERE))
              if f.endswith((".cpp", ".hpp"))]
    return files


def compiler_version():
    try:
        out = subprocess.run([CXX, "--version"], capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        fail(f"compiler {CXX} not found")
    return out.splitlines()[0]


def link_flags(workdir):
    """[] when 16-byte CAS links bare, else ['-latomic'] (as CMake does)."""
    src = os.path.join(workdir, "cas2_probe.cpp")
    with open(src, "w") as f:
        f.write(CAS2_PROBE)
    for extra in ([], ["-latomic"]):
        cmd = [CXX, *FLAGS, src, "-o", os.path.join(workdir, "cas2_probe"),
               *extra]
        if subprocess.run(cmd, capture_output=True).returncode == 0:
            return extra
    fail("16-byte __atomic_compare_exchange neither inlines nor links "
         "against libatomic")


def build():
    """(binary path, link flags), compiling if the inputs changed."""
    files = sources()
    version = compiler_version()
    digest = hashlib.sha256()
    digest.update(version.encode())
    digest.update(" ".join(FLAGS).encode())
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    exe = os.path.join(BUILD, "wcq_suite-" + digest.hexdigest()[:16])
    libs_file = exe + ".libs"
    if os.path.isfile(exe) and os.path.isfile(libs_file):
        with open(libs_file) as f:
            return exe, f.read().split()
    os.makedirs(BUILD, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        libs = link_flags(tmp)
        out = os.path.join(tmp, "wcq_suite")
        cmd = [CXX, *FLAGS, "-I", INCLUDE,
               os.path.join(HERE, "wcq_suite.cpp"), "-o", out, *libs]
        print("building:", " ".join(cmd), file=sys.stderr, flush=True)
        if subprocess.run(cmd).returncode != 0:
            fail("build failed")
        os.replace(out, exe)
    with open(libs_file, "w") as f:
        f.write(" ".join(libs))
    return exe, libs


def run_workload(exe, workload, seed, seconds, trace, trace_out=None):
    """Runs one workload; returns its result dict (the last stdout line)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, env=env)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown", None
        commit = git("rev-parse", "HEAD").stdout.strip() or "unknown"
        dirty = bool(git("status", "--porcelain").stdout.strip())
        return commit, dirty
    except OSError:
        return "unknown", None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed, libs):
    commit, dirty = git_state()
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler_version(),
        "flags": " ".join(FLAGS + libs),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def print_table(workloads):
    print(f"{'workload':<16} {'metric':<34} {'value':>14}  unit")
    for name, res in workloads.items():
        for section in ("metrics", "per_layer"):
            for metric, m in res.get(section, {}).items():
                print(f"{name:<16} {metric:<34} {m['value']:>14.6g}  "
                      f"{m['unit']}")
        print(f"{name:<16} {'failed/attempted':<34} "
              f"{res['failed']:>7}/{res['attempted']}")


def suite(args, exe, libs, seeds):
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    trace_dir = os.path.join(BUILD, "traces")
    runs = []
    ok = True
    for i in range(args.runs):
        seed = seeds[i % len(seeds)]
        started = time.monotonic()
        results = {}
        for w in WORKLOADS:
            res = run_workload(exe, w, seed, seconds, trace=False)
            results[w] = {k: res[k] for k in
                          ("correct", "attempted", "failed", "metrics")}
        if args.trace:
            os.makedirs(trace_dir, exist_ok=True)
            for w in WORKLOADS:
                path = os.path.join(trace_dir, f"{w}.json")
                res = run_workload(exe, w, seed, seconds, trace=True,
                                   trace_out=path)
                results[w]["per_layer"] = res["metrics"]
                results[w]["attempted"] += res["attempted"]
                results[w]["failed"] += res["failed"]
                results[w]["correct"] = results[w]["failed"] == 0
        print(f"\nrun {i + 1}/{args.runs}, seed {seed}, "
              f"{time.monotonic() - started:.1f} s")
        print_table(results)
        ok = ok and all(r["failed"] == 0 for r in results.values())
        runs.append({"fingerprint": fingerprint(seed, libs),
                     "seconds": seconds, "smoke": args.smoke,
                     "workloads": results})
    out = args.out or os.path.join(
        BUILD, "results",
        datetime.datetime.now().strftime("suite-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")
    print(f"\nresults: {out}")
    if args.trace:
        print(f"traces (open in https://ui.perfetto.dev): {trace_dir}")
    if not ok:
        print("FAILED: some values were lost, duplicated, corrupted, "
              "reordered or wrongly refused", file=sys.stderr)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: the whole suite)")
    p.add_argument("--seed", default="1",
                   help="input seed; the suite cycles a comma list over runs")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="measured seconds per workload run")
    p.add_argument("--trace", choices=["0", "1"], default="0",
                   help="1: per-layer metrics from a traced run + ladder")
    p.add_argument("--trace-out", help="Chrome trace file (one workload)")
    p.add_argument("--runs", type=int, default=1, help="suite repetitions")
    p.add_argument("--smoke", action="store_true",
                   help=f"{SMOKE_SECONDS} s per workload; checks the path, "
                        "never use its numbers")
    p.add_argument("--out", help="suite result file")
    args = p.parse_args()
    args.trace = args.trace == "1"
    try:
        seeds = [int(s) for s in args.seed.split(",")]
    except ValueError:
        fail("--seed takes an integer or a comma list of integers")
    if args.runs < 1 or args.seconds <= 0:
        fail("--runs and --seconds must be positive")
    if args.workload is not None and len(seeds) > 1:
        fail("--workload takes a single --seed")

    exe, libs = build()
    if args.workload is None:
        return suite(args, exe, libs, seeds)
    res = run_workload(exe, args.workload, seeds[0],
                       SMOKE_SECONDS if args.smoke else args.seconds,
                       args.trace, args.trace_out)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
