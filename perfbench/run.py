#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the checkout's src/) into .bench_build/; later
calls rebuild incrementally. Then it runs the perfbench driver for one
workload, whose last line of standard output is the result JSON.

--workload all runs every workload, each in its own process, and ends
with one JSON line whose metrics are prefixed by the workload name.
--smoke uses tiny inputs (for the tests). See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench")
WORKLOADS = ["summa-2d", "replicated-15d", "halo-local-1d", "sampled-1d"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, allow_abbrev=False,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and 20 measured epochs")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def source_digest():
    """sha256 over the library and benchmark sources, for the result header:
    the checkout the driver runs in is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    # Only ask git inside a git checkout, so it never searches the
    # directories above the checkout.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from the root of a checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e, 1)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            fail("build step failed: " + " ".join(cmd), 1)


def driver_cmd(args, workload, commit, digest):
    cmd = [DRIVER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit, "--source-digest", digest]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == 1:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    return cmd


def run_driver(cmd, capture):
    try:
        out = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                             stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)), 1)
    return out.returncode, out.stdout if capture else ""


def main(argv):
    args = parse_args(argv)
    build()
    commit = git_commit()
    digest = source_digest()
    if args.workload != "all":
        code, _ = run_driver(driver_cmd(args, args.workload, commit, digest),
                             capture=False)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, text = run_driver(driver_cmd(args, workload, commit, digest),
                                capture=True)
        sys.stdout.write(text)
        sys.stdout.flush()
        worst = worst or code
        lines = text.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if result is None:
            combined["correct"] = False
            worst = worst or 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
