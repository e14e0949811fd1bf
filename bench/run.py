#!/usr/bin/env python3
"""Sweep benchmark for idealkit: battery throughput and latency per workload.

Run from the repository root:

    python3 bench/run.py --workload mixed_d2 --seed 11 --seconds 38 --trace 0
    python3 bench/run.py --workload mixed_d2 --seed 11 --seconds 38 --trace 1
    python3 bench/run.py --selftest
    python3 bench/run.py --record        # rewrite bench/reference.json

Each run is one fresh single process (jobs=1).  It imports idealkit from
``src/`` of the checkout it lives in, builds the workload's instance list from
the seed, calls the public ``instances.run_battery`` once per instance for
whole passes over the list while the time budget lasts, assembles the sweep
payload the way ``idealkit sweep`` does and checks it.  It prints every metric
by name and unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one traced
pass with the layer modules wrapped from outside (see tracer.py), re-runs the
first quarter of the list untraced, alternating which goes first, to measure
the tracing overhead, and reports the per-layer metrics.

Exit codes: 0 all checks passed, 1 a check failed, 2 the program could not
be imported from this checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many instances beyond it
STATUSES = ("verified", "violated", "unresolved", "skipped")
PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import idealkit
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - start)
"""

# Per-layer metrics reported by --trace 1; BENCHMARK.json lists the same names.
CALLS_SELF = {
    "monomial": ("minimalize", "product", "colength", "newton", "closure_data"),
    "groebner": ("buchberger", "normal_form", "local_colength", "colon_ideal",
                 "reduction_number"),
    "semigroup": ("colength", "ideal", "product", "colon"),
}
MODULES = ("monomial", "semigroup", "groebner", "binomfit", "invariants", "bounds",
           "instances")
CHECKERS = ("thm_2_2", "thm_2_3", "cor_e1para", "thm_e1hs", "prop_f0", "cor_sally",
            "thm_3_1", "lemma_3_2", "thm_3_3", "cor_after_3_3", "rossi",
            "normalization", "intro_bounds")


def load_program():
    """Import idealkit from this checkout's src/ and the benchmark's modules."""
    if not (SRC / "idealkit" / "__init__.py").is_file():
        print(f"error: no idealkit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import idealkit
    if Path(idealkit.__file__).resolve().parent != SRC / "idealkit":
        print(f"error: imported idealkit from {idealkit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return idealkit


# ------------------------------------------------------------------ payload

def payload_text(payload):
    """Serialise like the CLI: sort_keys, indent=2, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def make_payload(idealkit, wl, seed, records):
    records = sorted(records, key=lambda r: r["id"])
    return {"tool_version": idealkit.__version__, "seed": seed, "family": wl.family,
            "instances": records, "aggregate": idealkit.instances.aggregate(records)}


def record_digest(rec):
    """Digest of what a battery computed, unchanged by relabelling variables.

    Covers each report's theorem id, hypotheses, sides, slack and status, the
    scalar witness entries (list-valued ones hold exponent vectors) and the
    record's extra fields; leaves out the id and the instance itself.
    """
    reports = [{**{k: v for k, v in r.items() if k != "witness"},
                "witness": {k: v for k, v in r["witness"].items()
                            if not isinstance(v, (list, tuple, dict))}}
               for r in rec["reports"]]
    extras = {k: v for k, v in rec.items() if k not in ("id", "instance", "reports")}
    text = json.dumps({"reports": reports, "extras": extras}, sort_keys=True, default=str)
    return sha256(text)[:16]


def check_payload(wl, seed, insts, payload, reference):
    """Problems found in a payload; an empty list means it passed."""
    problems = []
    records = payload["instances"]
    by_id = {r["id"]: r for r in records}
    if len(by_id) != len(insts) or set(by_id) != {i["id"] for i in insts}:
        problems.append(f"payload has {len(by_id)} records for {len(insts)} instances")
    counts = Counter()
    for rec in records:
        for rep in rec["reports"]:
            status = rep["status"]
            counts[rep["theorem_id"], status] += 1
            hyps_ok = all(ok for _, ok in rep["hypotheses"])
            consistent = (status in STATUSES and rep["slack"] == rep["rhs"] - rep["lhs"]
                          and (not rep["holds"] or rep["lhs"] <= rep["rhs"])
                          and (status == "skipped") == (not hyps_ok)
                          and (status == "verified") == (hyps_ok and rep["holds"]))
            if not consistent:
                problems.append(f"{rec['id']} {rep['theorem_id']}: status {status} "
                                f"does not follow from lhs/rhs/hypotheses")
        for flag in ("e1_oracles_agree", "e1_identity_ok"):
            if rec.get(flag) is False:
                problems.append(f"{rec['id']}: {flag} is false")
    aggregate = {(t, s): n for t, slot in payload["aggregate"].items()
                 for s, n in slot.items() if n}
    if aggregate != dict(counts):
        problems.append("aggregate does not match the records")
    expected = reference["records"]
    for inst in insts:
        rec = by_id.get(inst["id"])
        key = wl.reference_key(inst)
        if rec is not None and expected.get(key) != record_digest(rec):
            problems.append(f"{inst['id']}: record differs from the reference "
                            f"({'missing' if key not in expected else 'mismatch'})")
    if seed == wl.default_seed and sha256(payload_text(payload)) != reference["payload_sha256"]:
        problems.append("default-seed payload digest differs from the reference")
    return problems


# -------------------------------------------------------------- measurement

def timed_battery(instances, inst):
    """(seconds, record or None, error or None) for one battery."""
    start = time.perf_counter()
    try:
        rec = instances.run_battery(inst)
    except Exception as exc:  # a battery that raises is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rec, None


def measure(instances, insts, seconds):
    """Whole passes over insts while the budget lasts; at least one pass."""
    times = [[] for _ in insts]
    records = {}
    errors = []
    nondeterministic = set()
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, inst in enumerate(insts):
            dt, rec, err = timed_battery(instances, inst)
            times[i].append(dt)
            if err is not None:
                errors.append(f"{inst['id']}: {err}")
            elif inst["id"] not in records:
                records[inst["id"]] = rec
            elif rec != records[inst["id"]]:
                nondeterministic.add(inst["id"])
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return {"passes": passes, "wall_s": time.perf_counter() - start,
            "per_instance_s": [statistics.median(t) for t in times],
            "records": list(records.values()), "errors": errors,
            "problems": [f"{i}: records differ between passes" for i in sorted(nondeterministic)]}


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond it."""
    p = 100 * (n - TAIL_BEYOND) // n
    while p > 0 and n - math.ceil(p * n / 100) < TAIL_BEYOND:
        p -= 1
    return p


def nearest_rank(sorted_values, p):
    return sorted_values[max(math.ceil(p * len(sorted_values) / 100), 1) - 1]


def setup_times(name, seed):
    """Fresh-process time to import idealkit and build the instance list."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(BENCH), name, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def environment(idealkit):
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "executable": sys.executable,
            "idealkit": idealkit.__version__}


def count_statuses(payload):
    reports = [rep for rec in payload["instances"] for rep in rec["reports"]]
    statuses = Counter(rep["status"] for rep in reports)
    return len(reports), statuses


# -------------------------------------------------------------------- modes

def run_untraced(idealkit, wl, seed, insts, seconds):
    """End-to-end metrics: (metrics, payload, problems, attempted, failed)."""
    measured = measure(idealkit.instances, insts, seconds)
    payload = make_payload(idealkit, wl, seed, measured["records"])
    setups = setup_times(wl.name, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(insts)
    attempted = measured["passes"] * n
    failed = len(measured["errors"])
    per_ms = sorted(t * 1000 for t in measured["per_instance_s"])
    p_tail = tail_percentile(n)
    n_reports, statuses = count_statuses(payload)
    print(f"passes {measured['passes']} over {n} instances in {measured['wall_s']:.2f} s")
    print(f"instance_tail_ms is p{p_tail} of {n} per-instance medians "
          f"({n - math.ceil(p_tail * n / 100)} instances beyond it)")
    print(f"setup_s samples {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"{'error_frac':48s} {failed / attempted:14.6g} ratio  "
          f"({failed}/{attempted} batteries raised)")
    print(f"{'unresolved_frac':48s} {statuses['unresolved'] / n_reports:14.6g} ratio  "
          f"({statuses['unresolved']}/{n_reports} reports)")
    print(f"{'bounds.violated_reports':48s} {statuses['violated']:14d} count  "
          f"(reported, not asserted)")
    metrics = {
        # batteries per second of a median pass: each instance's median over passes
        "instances_per_s": (n / sum(measured["per_instance_s"]), "1/s"),
        "instance_p50_ms": (statistics.median(per_ms), "ms"),
        "instance_tail_ms": (nearest_rank(per_ms, p_tail), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, payload, measured["problems"] + measured["errors"], attempted, failed


def run_traced(idealkit, wl, seed, insts):
    """One traced pass; the first quarter also runs untraced, alternating order.

    Returns (tracer, payload, overhead, problems, attempted, failed).
    """
    from tracer import Tracer
    instances = idealkit.instances
    tracer = Tracer()
    paired = len(insts) // 4
    records, problems = {}, []
    spent = {True: 0.0, False: 0.0}
    attempted = failed = 0
    for i, inst in enumerate(insts):
        order = (True,) if i >= paired else ((False, True) if i % 2 == 0 else (True, False))
        results = {}
        for traced in order:
            if traced:
                tracer.install()
            try:
                dt, results[traced], err = timed_battery(instances, inst)
            finally:
                tracer.uninstall()
            attempted += 1
            if err is not None:
                failed += 1
                problems.append(f"{inst['id']}: {err}")
            if i < paired:
                spent[traced] += dt
        if results[True] is not None:
            records[inst["id"]] = results[True]
        if False in results and results[False] != results[True]:
            problems.append(f"{inst['id']}: traced record differs from the untraced one")
    tracer.flush()
    payload = make_payload(idealkit, wl, seed, list(records.values()))
    overhead = {"paired": paired, "traced_s": spent[True], "untraced_s": spent[False]}
    return tracer, payload, overhead, problems, attempted, failed


def run_layers(idealkit, wl, seed, insts, seconds):
    """Per-layer metrics: (metrics, payload, problems, attempted, failed)."""
    tracer, payload, overhead, problems, attempted, failed = run_traced(idealkit, wl, seed, insts)
    print_layer_table(tracer)
    metrics = layer_metrics(tracer, payload, insts, overhead, failed, attempted)
    return metrics, payload, problems, attempted, failed


def layer_metrics(tracer, payload, insts, overhead, failed, attempted):
    from workloads import content_key
    stats = tracer.stats
    m = {}
    for mod, funcs in CALLS_SELF.items():
        for f in funcs:
            st = stats[f"{mod}.{f}"]
            m[f"{mod}.{f}.calls"] = (st.calls, "count")
            m[f"{mod}.{f}.self_s"] = (st.self_s, "s")
    for mod in MODULES:
        m[f"{mod}.self_s"] = (tracer.module_self_s(mod), "s")
    for f in ("hilbert_coeffs", "fiber_coeffs", "normal_coeffs"):
        name = f"invariants.{f}"
        calls = stats[name].calls
        distinct = tracer.counters[name + ".distinct"]
        m[name + ".calls"] = (calls, "count")
        m[name + ".distinct_frac"] = (distinct / calls if calls else 0.0, "ratio")
    m["invariants.minimal_reduction.calls"] = (stats["invariants.minimal_reduction"].calls, "count")
    m["invariants.minimal_reduction.samples_tried"] = (
        tracer.counters["invariants.minimal_reduction.samples_tried"], "count")
    fit = stats["binomfit.fit_binomial"]
    m["binomfit.fit_binomial.calls"] = (fit.calls, "count")
    m["binomfit.fit_binomial.self_s"] = (fit.self_s, "s")
    m["binomfit.fit_binomial.failed"] = (fit.failed, "count")
    m["groebner.reduction_number.failed"] = (stats["groebner.reduction_number"].failed, "count")
    m["instances.unresolved_retries"] = (tracer.counters["instances.unresolved_retries"], "count")
    for c in CHECKERS:
        st = stats[f"bounds.check_{c}"]
        m[f"bounds.check_{c}.calls"] = (st.calls, "count")
        m[f"bounds.check_{c}.incl_s"] = (st.incl_s, "s")
    n_reports, statuses = count_statuses(payload)
    m["bounds.violated_reports"] = (statuses["violated"], "count")
    m["instances.distinct_frac"] = (len({content_key(i) for i in insts}) / len(insts), "ratio")
    m["error_frac"] = (failed / attempted, "ratio")
    m["unresolved_frac"] = (statuses["unresolved"] / n_reports, "ratio")
    paired = overhead["paired"]
    m["trace.untraced_instances_per_s"] = (paired / overhead["untraced_s"], "1/s")
    m["trace.traced_instances_per_s"] = (paired / overhead["traced_s"], "1/s")
    m["trace.overhead_frac"] = (overhead["traced_s"] / overhead["untraced_s"] - 1, "ratio")
    return m


def print_layer_table(tracer, limit=25):
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
    total = sum(s.self_s for _, s in rows) or 1.0
    print(f"{'span':44s} {'calls':>9s} {'self_s':>9s} {'self%':>6s} {'incl_s':>9s} {'failed':>6s}")
    for name, s in rows[:limit]:
        if s.calls:
            print(f"{name:44s} {s.calls:9d} {s.self_s:9.3f} {100 * s.self_s / total:5.1f}% "
                  f"{s.incl_s:9.3f} {s.failed:6d}")


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def bench(args):
    idealkit = load_program()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = wl.default_seed
    reference = json.loads(REFERENCE.read_text())[wl.name]
    insts = workloads.build(wl.name, args.seed)
    print(f"workload {wl.name} family {wl.family} seed {args.seed} instances {len(insts)} "
          f"distinct {len({workloads.content_key(i) for i in insts})}")
    print("environment " + " ".join(f"{k}={v}" for k, v in environment(idealkit).items()))
    run = run_layers if args.trace else run_untraced
    metrics, payload, problems, attempted, failed = run(idealkit, wl, args.seed, insts,
                                                        args.seconds)
    problems += check_payload(wl, args.seed, insts, payload, reference)
    print_metrics(metrics)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'passed' if not problems else f'{len(problems)} failed'}")
    print(result_line(not problems, attempted, failed, metrics))
    return 0 if not problems else 1


# ----------------------------------------------------- self-test and record

def default_payload(idealkit, wl, traced=False):
    import workloads
    insts = workloads.build(wl.name, wl.default_seed)
    if traced:
        _, payload, _, problems, _, _ = run_traced(idealkit, wl, wl.default_seed, insts)
        return insts, payload, problems
    measured = measure(idealkit.instances, insts, 0)
    payload = make_payload(idealkit, wl, wl.default_seed, measured["records"])
    return insts, payload, measured["errors"] + measured["problems"]


def selftest(args):
    idealkit = load_program()
    import workloads
    reference = json.loads(REFERENCE.read_text())
    failures = []
    for wl in workloads.WORKLOADS.values():
        insts, payload, problems = default_payload(idealkit, wl)
        problems += check_payload(wl, wl.default_seed, insts, payload, reference[wl.name])
        print(f"{wl.name}: default seed {wl.default_seed}, {len(insts)} instances, "
              f"{'ok' if not problems else problems[:5]}")
        failures += problems
        if wl.name == "mixed_d2":
            _, traced, tproblems = default_payload(idealkit, wl, traced=True)
            same = payload_text(traced) == payload_text(payload)
            print(f"{wl.name}: traced payload {'identical' if same else 'DIFFERS'} to untraced")
            failures += tproblems + ([] if same else ["traced payload differs"])
            cli = subprocess.run(
                [sys.executable, "-m", "idealkit.cli", "sweep", "--family", wl.family,
                 "--count", str(wl.count), "--seed", str(wl.default_seed)],
                cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                capture_output=True, text=True, timeout=600)
            same = cli.returncode in (0, 1) and cli.stdout == payload_text(payload)
            print(f"{wl.name}: `idealkit sweep --family {wl.family} --count {wl.count} "
                  f"--seed {wl.default_seed}` output {'byte-identical' if same else 'DIFFERS'}")
            failures += [] if same else ["CLI sweep output differs"]
    print(f"selftest: {'passed' if not failures else f'{len(failures)} failed'}")
    return 0 if not failures else 1


def record(args):
    idealkit = load_program()
    import workloads
    out = {}
    for wl in workloads.WORKLOADS.values():
        records = {}
        for inst in workloads.reference_population(wl.name):
            records[wl.reference_key(inst)] = record_digest(idealkit.instances.run_battery(inst))
        _, payload, problems = default_payload(idealkit, wl)
        if problems:
            sys.exit(f"{wl.name}: {problems[:5]}")
        out[wl.name] = {"payload_sha256": sha256(payload_text(payload)), "records": records}
        print(f"{wl.name}: {len(records)} reference records", flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("mixed_d2", "gfp_e0Ih", "semigroup"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check default-seed payloads and the CLI equivalence")
    parser.add_argument("--record", action="store_true",
                        help="recompute bench/reference.json from the current program")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(args)
    if args.record:
        return record(args)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
