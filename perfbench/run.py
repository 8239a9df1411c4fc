#!/usr/bin/env python3
"""Wall-clock benchmark of Cloud9-OCaml: two workloads, end-to-end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench/main.exe with dune, then runs one process per
iteration of the workload until the time budget is spent (at least
MIN_ITERS iterations).  Iterations cycle through the SEEDS seeds
--seed, --seed + 1, ..., so a run's medians average over search orders,
and every iteration's exhaustive totals must be identical: the totals
must not depend on the seed.

--trace 0 prints the end-to-end metrics, measured with tracing off.
The host's speed drifts by tens of percent over minutes, so each
iteration's times are scaled to a reference host speed: a fixed kernel
of stdlib code (main.exe calibrate, the median of three runs of it) is
timed in its own process before the first iteration and after each one,
and an iteration's times are multiplied by REFERENCE_CALIBRATE_S over
the mean of the two kernel times around it.  The report gives the
unscaled wall-time medians as well.
--trace 1 alternates untraced and traced iterations, plus those of the
programs in TRACE_KINDS, and prints the per-layer metrics (medians over
the traced iterations) plus the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Everything before it is
a human-readable report: per metric the median, the highest percentile
with at least ten samples beyond it, and the sample count; every failed
operation by name.

Exit codes: 0 with a result; 1 when the build or an iteration fails, or
an iteration is still running RUN_LIMIT seconds after the build; 3 when
a traced run's reconciliation finds a mismatch.  No result is printed
on a non-zero exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["printf-interleaved", "memcached-dfs"]

# Iteration kinds of a traced run: (kind, main.exe program, options).
# main.exe's memcached-parallel is too noisy to be a workload of its own
# (see README.md), so the traced run of memcached-dfs measures its layer:
# it also runs its program on Cluster.Parallel, 2 domains traced for the
# cluster layer, and 2 and 1 domains untraced for the speedup and the
# redundant work.
TRACE_KINDS = {
    "printf-interleaved": [
        ("untraced", "printf-interleaved", {}),
        ("traced", "printf-interleaved", {"traced": True}),
    ],
    "memcached-dfs": [
        ("untraced", "memcached-dfs", {}),
        ("traced", "memcached-dfs", {"traced": True}),
        ("parallel", "memcached-parallel", {}),
        ("parallel-traced", "memcached-parallel", {"traced": True}),
        ("parallel-1", "memcached-parallel", {"domains": 1}),
    ],
}

# Seconds the calibration kernel takes on the reference host speed: the
# scaled times are those the iteration would have taken at that speed.
REFERENCE_CALIBRATE_S = 0.1
MIN_ITERS = 3
SEEDS = 8  # iterations cycle through this many consecutive seeds
RUN_LIMIT = 170  # seconds after the build by which every iteration has ended

END_TO_END = [
    ("setup_s", "s"),
    ("exhaust_s", "s"),
    ("cov100_s", "s"),
    ("peak_heap_mb", "MB"),
]

PER_LAYER = [
    ("engine.searcher.select_s", "s"),
    ("engine.searcher.add_s", "s"),
    ("engine.searcher.selects", "count"),
    ("engine.searcher.ns_per_select", "ns"),
    ("engine.searcher.peak_size", "count"),
    ("engine.executor.instrs", "count"),
    ("engine.executor.forks", "count"),
    ("engine.executor.self_s", "s"),
    ("smt.solver.queries", "count"),
    ("smt.solver.trivial", "count"),
    ("smt.solver.range", "count"),
    ("smt.solver.sat_cache", "count"),
    ("smt.solver.cex_cache", "count"),
    ("smt.solver.det_cache", "count"),
    ("smt.solver.sat_call", "count"),
    ("smt.solver.query_s", "s"),
    ("smt.solver.sat_call_s", "s"),
    ("smt.solver.det_sat_calls", "count"),
    ("smt.solver.branch_sat_calls", "count"),
    ("smt.solver.sat_share", "share"),
    ("smt.solver.inc.assumption_solves", "count"),
    ("smt.solver.inc.group_hits", "count"),
    ("smt.solver.inc.group_misses", "count"),
    ("posix.handler.calls", "count"),
    ("posix.handler.self_s", "s"),
    ("cluster.parallel.exhaust_s", "s"),
    ("cluster.parallel.mailbox_wait_s", "s"),
    ("cluster.parallel.steal_rtt_p50_ms", "ms"),
    ("cluster.parallel.job_replay_s", "s"),
    ("cluster.parallel.quiesce_s", "s"),
    ("cluster.parallel.transfers", "count"),
    ("cluster.parallel.steals", "count"),
    ("cluster.parallel.replay_share", "share"),
    ("cluster.parallel.redundant_share", "share"),
    ("cluster.parallel.worker_balance", "share"),
    ("cluster.parallel.speedup_2v1", "x"),
    ("cluster.parallel.gc_pause_s", "s"),
    ("gc.minor_collections", "count"),
    ("gc.major_collections", "count"),
    ("gc.minor_words", "words"),
    ("gc.promoted_words", "words"),
    ("gc.pause_s", "s"),
    ("lang.compile_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
    ("check.fail_share", "share"),
]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, work):
    """Empty the scratch directory [work], then build main.exe.

    Temporary files of the build and of every iteration go to [work]
    (TMPDIR), and dune's shared cache is off, so nothing is written
    outside the checkout."""
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        fail("no dune project with lib/ in %s: run from the root of a source checkout" % root)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
           "./perfbench/main.exe"]
    try:
        p = subprocess.run(cmd, cwd=root, env=dict(os.environ, TMPDIR=work), stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed (dune exit %d)" % p.returncode)
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    if not os.path.isfile(exe):
        fail("build produced no %s" % exe)
    return exe


def run_exe(cmd, root, work, deadline, what):
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=work, TMPDIR=work)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    try:
        return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s still running %d s after the build: killed" % (what, RUN_LIMIT))


def calibrate(exe, root, work, deadline):
    p = run_exe([exe, "calibrate"], root, work, deadline, "calibration")
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("calibration exited %d" % p.returncode)
    return json.loads(p.stdout.splitlines()[-1])["calibrate_s"]


def iterate(exe, root, work, deadline, workload, seed, traced=False, domains=None, simulated=False):
    cmd = [exe, workload, "--seed", str(seed), "--work", work]
    if traced:
        cmd.append("--traced")
    if domains is not None:
        cmd += ["--domains", str(domains)]
    if simulated:
        cmd.append("--simulated")
    t0 = time.monotonic()
    p = run_exe(cmd, root, work, deadline, "%s seed %d" % (workload, seed))
    wall = time.monotonic() - t0
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if p.returncode == 2 and lines:
        rec = json.loads(lines[-1])
        for m in rec.get("reconcile", []):
            print("RECONCILIATION MISMATCH %s seed %d: %s" % (workload, seed, m))
        fail("traced run of %s does not reconcile" % workload, code=3)
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        fail("%s seed %d exited %d" % (workload, seed, p.returncode))
    rec = json.loads(lines[-1])
    rec["wall_s"] = wall
    return rec


def tail(values):
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50, 90, 95, 99, 99.9):
        if n * (1 - p / 100.0) >= 10:
            best = p
    if best is None:
        return "n=%d (too few samples for a tail percentile)" % n
    return "p%s=%.6g n=%d" % (best, pct(values, best), n)


def pct(values, p):
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def run_loop(seconds, launch):
    """Launch iterations until the budget would be overrun (at least MIN_ITERS)."""
    t0 = time.monotonic()
    recs = []
    while True:
        elapsed = time.monotonic() - t0
        longest = max((r["wall_s"] for r in recs), default=0.0)
        if len(recs) >= MIN_ITERS and elapsed + longest > seconds:
            break
        recs.append(launch(len(recs)))
    return recs


def check_seeds(recs, problems):
    """Each program's exhaustive totals must be identical at every seed."""
    first = {}
    for r in recs:
        got = (r["totals"]["paths"], r["totals"]["errors"])
        ref = first.setdefault(r["workload"], (r["seed"], got))
        if got != ref[1]:
            problems.append("%s seed %d totals %s differ from seed %d totals %s"
                            % (r["workload"], r["seed"], got, ref[0], ref[1]))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    work = os.path.join(root, "perfbench", ".work")
    exe = build(root, work)
    deadline = time.monotonic() + RUN_LIMIT
    seeds = [a.seed + i for i in range(SEEDS)]
    print("workload %s, seeds %d..%d, %s s budget, trace %d" % (a.workload, seeds[0], seeds[-1], a.seconds, a.trace))

    problems = []  # operation failures, by name
    if a.trace == 0:
        t0 = time.monotonic()
        calibrate(exe, root, work, deadline)  # warm-up after the build: not used
        calibs = [calibrate(exe, root, work, deadline)]

        def launch(i):
            r = iterate(exe, root, work, deadline, a.workload, seeds[i % SEEDS])
            calibs.append(calibrate(exe, root, work, deadline))
            r["speed"] = REFERENCE_CALIBRATE_S / ((calibs[-2] + calibs[-1]) / 2.0)
            return r

        recs = run_loop(a.seconds - (time.monotonic() - t0), launch)
        untraced = recs
    else:
        kinds = TRACE_KINDS[a.workload]

        def launch(i):
            kind, program, opts = kinds[i % len(kinds)]
            r = iterate(exe, root, work, deadline, program, seeds[(i // len(kinds)) % SEEDS], **opts)
            r["kind"] = kind
            return r

        t0 = time.monotonic()
        sims = []
        if a.workload == "memcached-dfs":
            # the simulated cluster on the same program must agree
            sims = [iterate(exe, root, work, deadline, "memcached-parallel", a.seed, simulated=True)]
            sims[0]["kind"] = "simulated"
        recs = run_loop(a.seconds - (time.monotonic() - t0), launch)
        recs += [launch(i) for i in range(len(recs), len(kinds))]
        untraced = [r for r in recs if r["kind"] == "untraced"]
        traced = [r for r in recs if r["kind"] == "traced"]
        recs += sims
        print("spans and per-call histograms: %s" % os.path.join(work, "trace-*.json"))

    attempted = 0
    for r in recs:
        attempted += r["attempted"]
        for f in r["failures"]:
            problems.append("%s seed %d: %s" % (r.get("kind", "run"), r["seed"], f))
    check_seeds(recs, problems)
    attempted += 1  # the seed check
    for r in recs:
        scaled = ("  cov100 %.4f s  speed %.3f" % (r["cov100_s"], r["speed"])) if "speed" in r else ""
        print("  %-15s seed %-6d exhaust %.4f s%s  totals %s  failed %d/%d"
              % (r.get("kind", "run"), r["seed"], r["exhaust_s"], scaled,
                 json.dumps(r["totals"], sort_keys=True), r["failed"], r["attempted"]))
    for p in problems:
        print("FAILED: " + p)
    failed = len(problems)

    med = statistics.median
    if a.trace == 0:
        print("calibration kernel: median %.4f s (reference %.4f s)" % (med(calibs), REFERENCE_CALIBRATE_S))
        for name in ("setup_s", "exhaust_s", "cov100_s"):
            wall = [x for r in untraced for x in (r[name] if name == "setup_s" else [r[name]])]
            print("  %-36s %14.6g %-6s unscaled wall-time median" % (name, med(wall), "s"))
        samples = {
            "setup_s": [x * r["speed"] for r in untraced for x in r["setup_s"]],
            "exhaust_s": [r["exhaust_s"] * r["speed"] for r in untraced],
            "cov100_s": [r["cov100_s"] * r["speed"] for r in untraced],
            "peak_heap_mb": [r["peak_heap_mb"] for r in untraced],
        }
        values = {name: med(v) for name, v in samples.items()}
        units = END_TO_END
    else:
        layers = {name: med([r["layers"].get(name, 0.0) for r in traced]) for name, _ in PER_LAYER}
        base = med([r["exhaust_s"] for r in untraced])
        layers["trace.overhead_share"] = (med([r["exhaust_s"] for r in traced]) - base) / base
        samples = {}

        def of(kind):
            return [r for r in recs if r["kind"] == kind]

        def layer_medians(prefix, rs):
            for name, _ in PER_LAYER:
                if name.startswith(prefix) and name in rs[0]["layers"]:
                    layers[name] = med([r["layers"][name] for r in rs])

        if of("parallel-traced"):
            layer_medians("cluster.parallel.", of("parallel-traced"))
            one, two = of("parallel-1"), of("parallel")
            layers["cluster.parallel.exhaust_s"] = med([r["exhaust_s"] for r in two])
            layers["cluster.parallel.speedup_2v1"] = (med([r["exhaust_s"] for r in one])
                                                      / layers["cluster.parallel.exhaust_s"])
            u1 = med([r["totals"]["useful_instrs"] for r in one])
            layers["cluster.parallel.redundant_share"] = (
                med([r["totals"]["useful_instrs"] for r in two]) - u1) / u1
            layers["cluster.parallel.worker_balance"] = med([r["totals"]["worker_balance"] for r in two])
            layers["cluster.parallel.gc_pause_s"] = med([r["layers"]["gc.pause_s"] for r in of("parallel-traced")])
        layers["check.fail_share"] = failed / float(attempted)
        values = layers
        units = PER_LAYER

    for name, unit in units:
        extra = tail(samples[name]) if name in samples else ""
        print("  %-36s %14.6g %-6s %s" % (name, values[name], unit, extra))
    print("fail_share %d/%d = %.4g" % (failed, attempted, failed / float(attempted)))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
