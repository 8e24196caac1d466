#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload co_checkout --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark from source with dune (into
.perfbench_out/build), records the run environment, then runs one
workload.  The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero without
a result when the program's sources are missing, when an XNFDB_* knob
is set in the environment (it would change the measured program), or
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["co_checkout", "wire_checkout"]
OUT = ".perfbench_out"
BUILD_DIR = os.path.join(OUT, "build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "xbench.exe")
RUN_LIMIT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def tool_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """Digest of the measured program's sources: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def environment():
    rev = tool_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "none"
    return {
        "git_rev": rev or "none",
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": tool_output(["ocamlfind", "ocamlopt", "-version"]),
        "dune": tool_output(["dune", "--version"]),
        "xnfdb_env": {k: v for k, v in os.environ.items() if k.startswith("XNFDB_")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run from the repository root: the program's sources are not here")
    knobs = sorted(k for k in os.environ if k.startswith("XNFDB_"))
    if knobs:
        fail("refusing to measure with XNFDB_* knobs set: " + ", ".join(knobs))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "--profile", "release",
         "-j", "2", "./perfbench/xbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.time()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("run failed with exit code %d" % proc.returncode)
    last = out.strip().splitlines()[-1] if out.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        fail("run printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ want))
    print("# wall %.1f s" % (time.time() - t0), file=sys.stderr)


if __name__ == "__main__":
    main()
