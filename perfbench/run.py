#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `aimq-perfbench` package
(perfbench/Cargo.toml, its own cargo workspace over the repo's crates)
into $CARGO_TARGET_DIR (default: .bench_build), runs one workload, and
prints the program's result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics; the result is checked against
BENCHMARK.json before it is printed. Reports and traced spans go to
perfbench/out/. Exits non-zero without a result when the build fails,
an answer differs from its reference, or the result breaks the
contract.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
OUT_DIR = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run cmd to completion (killed and reaped on timeout); returns
    (returncode, stdout) or (None, "") when it cannot run."""
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
    except OSError:
        return None, ""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, ""
    return proc.returncode, out


def source_digest():
    """SHA-256 over the sources the binary is built from, so a run can
    be tied to its code even in a checkout that is not a git repo."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def metadata(args):
    rc, rustc = run_quiet(["rustc", "-V"], 30)
    rc_git, commit = run_quiet(["git", "rev-parse", "HEAD"], 30)
    return {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "machine": platform.machine(),
        "rustc": rustc.strip() if rc == 0 else None,
        "git_commit": commit.strip() if rc_git == 0 else None,
        "source_sha256": source_digest(),
    }


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}", 2)
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("build timed out", 2)
    if code != 0:
        fail(f"build failed (exit {code})", 2)


def check_result(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists for
    this mode, with their units, as finite numbers."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    expected = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, unit in expected.items():
        m = metrics[name]
        if m.get("unit") != unit:
            return f"{name}: unit {m.get('unit')!r}, expected {unit!r}"
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return f"{name}: value {v!r} is not a finite number"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("no crates/ beside perfbench/: run from a full checkout", 2)
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    build(env)

    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "aimq-perfbench")
    env["PERFBENCH_META"] = json.dumps(metadata(args))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"workload exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload printed no result")
    problem = check_result(result, args.trace == 1)
    if problem:
        fail(problem)
    if not result["correct"]:
        fail("answers differ from the reference")
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
