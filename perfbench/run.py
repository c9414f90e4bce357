#!/usr/bin/env python3
"""Campaign benchmark: build it, run one workload, check, report.

    python3 perfbench/run.py --workload fault-grid --seed 1 --trace 0
    python3 perfbench/run.py --smoke            # every workload, small grids
    python3 perfbench/run.py --write-digests    # regenerate digests.json

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and so does every file a run
writes. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the metrics are the end_to_end metrics
of BENCHMARK.json with --trace 0 and its per_layer metrics with
--trace 1. See README.md in this directory.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fault-grid", "clank-grid", "fault-remote")
CELLS = 20        # seeded cells per fault-grid point (the CLI default is 5)
SMOKE_CELLS = 1
DIGEST_SEEDS = 256  # digests.json covers campaign seeds 0..255
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure and build the benchmark program and eh_explored."""
    bdir = os.path.join(build_root(), "perfbench")
    logf = os.path.join(build_root(), "perfbench-build.log")
    os.makedirs(bdir, exist_ok=True)
    with open(logf, "w") as out:
        steps = [["cmake", "-S", HERE, "-B", bdir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "eh_explored"]]
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % logf)
    return (os.path.join(bdir, "perfbench"),
            os.path.join(bdir, "eh_root", "tools", "eh_explored"))


def run_bench(exe, args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark program and return its last-line JSON report."""
    # A process group of its own, so a timeout stops its brokers too.
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit("perfbench: program exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def digest_key(workload, smoke):
    grid = "clank" if workload == "clank-grid" else "fault"
    if grid == "clank":
        return "clank/smoke" if smoke else "clank/full"
    return "fault/cells=%d" % (SMOKE_CELLS if smoke else CELLS)


def committed_digest(digests, workload, seed, smoke):
    table = digests.get(digest_key(workload, smoke), {})
    # The clank grid draws no randomness: one digest serves every seed.
    return table.get("*", table.get(str(seed)))


def self_check(report, names):
    """Every named metric present, finite and with a unit; else fail."""
    problems = []
    for name in names:
        m = report["metrics"].get(name)
        if m is None:
            problems.append("%s missing" % name)
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append("%s is not a finite number" % name)
        elif not m.get("unit"):
            problems.append("%s has no unit" % name)
    return problems


def digest_check(report, digests):
    """Compare rows hashes with digests.json: every timed run's (each has
    a campaign seed of its own), or the traced run's for --seed."""
    wl = report["workload"]
    runs = report["rep_hashes"]
    if not runs:
        runs = [[report["seed"], report["hashes"]["jobs_n"]]]
    bad, unknown = [], 0
    for seed, rows in runs:
        wanted = committed_digest(digests, wl, seed, report["smoke"])
        if wanted is None:
            unknown += 1
        elif rows != wanted:
            bad.append("seed %d: rows %s, committed %s" % (seed, rows, wanted))
    if bad:
        return {"ok": False, "detail": "; ".join(bad[:3])}
    detail = "%d of %d runs match" % (len(runs) - unknown, len(runs))
    if unknown:
        detail += "; %d seeds without a committed digest (cross-run " \
                  "agreement only)" % unknown
    return {"ok": True, "detail": detail}


def summarize(report, names, digests):
    """Print the human report; return (correct, final metrics)."""
    wl = report["workload"]
    checks = dict(report["checks"])
    checks["committed_digest"] = digest_check(report, digests)
    acc = report["geomean_error_pct"]
    log("perfbench %s seed=%d trace=%d jobs=%d%s" % (
        wl, report["seed"], report["trace"], report["jobs"],
        " (smoke)" if report["smoke"] else ""))
    for name, m in report["metrics"].items():
        spread = ""
        if m["n"] > 1:
            spread = "  [q1 %.6g  q3 %.6g  n=%d]" % (m["q1"], m["q3"], m["n"])
        log("  %-40s %14.6g %-9s%s  | model err %.4g%%" % (
            name, m["value"], m["unit"], spread, acc))
    if report["attempted"]:
        log("  failed_frac = %d / %d = %.6g" % (
            report["failed"], report["attempted"],
            report["failed"] / report["attempted"]))
    for name, c in checks.items():
        log("  check %-36s %s  %s" % (name, "ok  " if c["ok"] else "FAIL",
                                      c["detail"]))
    correct = all(c["ok"] for c in checks.values()) and report["failed"] == 0
    metrics = {n: {"value": report["metrics"][n]["value"],
                   "unit": report["metrics"][n]["unit"]} for n in names}
    return correct, metrics


def bench_one(exe, explored, workload, seed, seconds, trace, smoke):
    spec = load_spec()
    names = [m["name"] for m in
             (spec["per_layer"] if trace else spec["end_to_end"])]
    # Relative to the checkout, where the program runs: the broker's
    # Unix socket lives here, and socket paths must stay short.
    out_dir = os.path.relpath(
        os.path.join(build_root(), "runs", "%s-%d" % (workload, seed)), ROOT)
    shutil.rmtree(os.path.join(ROOT, out_dir), ignore_errors=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--cells", str(SMOKE_CELLS if smoke else CELLS),
            "--smoke", "1" if smoke else "0",
            "--explored", explored, "--out-dir", out_dir]
    try:
        report = run_bench(exe, args)
    finally:
        # Keep only the span dump of a traced run.
        out_abs = os.path.join(ROOT, out_dir)
        for entry in os.listdir(out_abs) if os.path.isdir(out_abs) else []:
            if not entry.startswith("spans-"):
                shutil.rmtree(os.path.join(out_abs, entry), ignore_errors=True)
    problems = self_check(report, names)
    if problems:
        for p in problems:
            log("perfbench: self-check: " + p)
        raise SystemExit("perfbench: self-check failed")
    correct, metrics = summarize(report, names, load_digests())
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def write_digests(exe):
    tables = {}
    for key, args in (
            ("fault/cells=%d" % CELLS,
             ["--digests", "fault", "--cells", str(CELLS)]),
            ("fault/cells=%d" % SMOKE_CELLS,
             ["--digests", "fault", "--cells", str(SMOKE_CELLS)])):
        proc = subprocess.run(
            [exe] + args + ["--seed-from", "0", "--seed-to",
                            str(DIGEST_SEEDS - 1)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        table = {}
        for line in proc.stdout.splitlines():
            seed, digest, not_ok = line.split()
            if not_ok != "0":
                raise SystemExit("seed %s has failed cells" % seed)
            table[seed] = digest
        tables[key] = table
    for key, smoke in (("clank/full", "0"), ("clank/smoke", "1")):
        proc = subprocess.run(
            [exe, "--digests", "clank", "--smoke", smoke,
             "--seed-from", "1", "--seed-to", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        tables[key] = {"*": proc.stdout.split()[1]}
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(tables, f, indent=0, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, traced and not, on small grids")
    ap.add_argument("--write-digests", action="store_true")
    a = ap.parse_args()

    exe, explored = build()
    if a.write_digests:
        write_digests(exe)
        return 0
    if a.smoke:
        ok = True
        for wl in WORKLOADS:
            for trace in (0, 1):
                res = bench_one(exe, explored, wl, a.seed, 1, trace, True)
                ok &= res["correct"]
        print(json.dumps({"smoke": "ok" if ok else "FAIL"}))
        return 0 if ok else 1
    if not a.workload:
        ap.error("--workload is required")
    res = bench_one(exe, explored, a.workload, a.seed, a.seconds,
                    bool(a.trace), False)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
