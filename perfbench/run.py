#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs it, checks that the metrics it
reports are exactly those BENCHMARK.json declares for the mode (end-to-end
for --trace 0, per-layer for --trace 1), records the host and provenance
with the result under perfbench-out/, and prints the program's output with
the JSON result as the last line.  Exits non-zero, without a result line,
when the build, the run or the metric check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
OUT_DIR = "perfbench-out"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture):
    # Keep the build inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        return subprocess.run(
            cmd, env=env, timeout=timeout, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (cmd[0], e))


def tree_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ("lib", "perfbench"):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".ml", ".mli", "dune", ".py", ".json"))]
    for f in sorted(files):
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def host(seed):
    def cache_bytes(level):
        # getconf asks the C library, which reads the CPU's cache descriptors.
        try:
            r = subprocess.run(["getconf", "LEVEL%d_CACHE_SIZE" % level], text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            return int(r.stdout.strip())
        except (OSError, ValueError):
            return None

    commit = "unknown"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "git_commit": commit,
        "tree_sha256": tree_digest(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    for f in ("BENCHMARK.json", "dune-project", "lib"):
        if not os.path.exists(f):
            fail("%s not found: run from the root of a full checkout" % f)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if a.trace else bench["end_to_end"]
    declared = {m["name"]: m["unit"] for m in declared}
    if a.trace:
        with open(os.path.join("perfbench", "predictions.json")) as fh:
            predicted = {k: v["unit"] for k, v in json.load(fh).items()}
        if predicted != declared:
            fail("perfbench/predictions.json does not match the per-layer metrics")

    if run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
           BUILD_TIMEOUT, capture=False).returncode != 0:
        fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--spans", os.path.join(OUT_DIR, stem + ".spans.jsonl")]
    r = run(cmd, RUN_TIMEOUT, capture=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail("benchmark exited with code %d" % r.returncode)
    result = json.loads(lines[-1])
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        wrong = sorted(k for k in declared if k in reported and reported[k] != declared[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
             % (missing, extra, wrong))

    info = host(a.seed)
    provenance = {}
    for line in lines:
        if line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"host": info, "provenance": provenance, "result": result}, fh, indent=1)
    print("\n".join(lines[:-1]))
    print("host: " + json.dumps(info, sort_keys=True))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
