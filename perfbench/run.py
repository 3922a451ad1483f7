"""Benchmark for cotrig: four workloads, checked answers, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --census [--workload NAME] [--seed N]

A run builds the workload's cases from the seed, sets the workload up in
fresh processes (the median of SETUP_SAMPLES set-ups is ``setup_s``),
then runs whole passes over the cases in one more process until
``--seconds`` have gone by, and at least MIN_PASSES passes.  Each
operation's latency is its best over the passes: ``wall_s`` is their sum
and ``op_p50_ms`` their median.  ``op_tail_ms`` is a percentile over
every latency of every pass.  The answers are then checked against
references this benchmark computes itself (checker.py), outside the
timed region.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of the traced passes (traced and
untraced passes alternate).

``--census`` runs every case of every workload once, including the
cases that the timed runs leave out because they fail, and prints each
verdict with the failure and wrong-answer ratios.  ``--all`` prints the
census, then every timed workload untraced and traced.

Processes run with BLAS and OpenMP pinned to one thread, an address
space limit and a per-operation time limit; a breach counts as a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_SAMPLES = 7
MIN_PASSES = 3
OP_LIMIT_S = 60.0
ADDRESS_SPACE_BYTES = 4 * 1024 ** 3
WORKER_TIMEOUT_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("fail_ratio", "ratio"),
              ("wrong_ratio", "ratio"), ("peak_rss_mb", "MB"))
# Printed but not in the JSON result: fail_ratio and wrong_ratio, which
# the timed cases keep at 0 on the commit they were chosen on (a compared
# metric must never be 0), and op_tail_ms, a percentile of single
# latencies that bursts of outside load move by a third between runs.
REPORTED = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


sys.path.insert(0, HERE)
import workloads  # noqa: E402  (stdlib only)


def _spec(workload: str, mode: str, cases, seconds: float, trace: bool,
          min_passes: int) -> dict:
    return {
        "root": ROOT, "workload": workload, "mode": mode, "cases": cases,
        "seconds": seconds, "min_passes": min_passes, "trace": trace,
        "op_limit_s": OP_LIMIT_S, "address_space_bytes": ADDRESS_SPACE_BYTES,
        "thread_env": sorted(THREAD_ENV),
        "trace_file": os.path.join(OUT_ROOT, f"trace-{workload}.npz"),
    }


def run_worker(spec: dict) -> dict:
    """Run worker.py on spec in a fresh process and return its result."""
    os.makedirs(OUT_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    spec = dict(spec, out_dir=os.path.join(work, "out"))
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             result_path], env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker for {spec['workload']} exited with "
                             f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(result_path) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {spec['workload']} ran over "
                         f"{WORKER_TIMEOUT_S:g} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _best_of_passes(passes, count: int) -> list:
    """Each operation's lowest latency over the passes.  Other tenants of
    a shared host stall it in bursts of a second or two that slow single
    operations by up to 1.8x (measured with a fixed kernel on a 2-vCPU
    host); a median over five passes still moved by up to a third
    between runs, the best of them by a few percent."""
    return [min(p["ops"][i]["latency_s"] for p in passes)
            for i in range(count)]


def tail_percentile(count: int):
    """Highest whole percentile with at least ten samples beyond it."""
    if count < 11:
        return None
    return int(100 * (count - 10) // count)


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# checking


def check_records(cases, passes) -> dict:
    """Verdicts for every operation of every pass, in place; returns the
    counts.  References are computed once per case."""
    import checker

    by_key = {c["key"]: c for c in cases}
    refs = {}
    verdicts = {}
    fingerprints = {}
    counts = {"attempted": 0, "failed": 0, "wrong": 0, "unverified": 0}
    for p in passes:
        for rec in p["ops"]:
            counts["attempted"] += 1
            case = by_key[rec["key"]]
            if rec["status"] != "ok":
                rec["verdict"] = "failed"
                counts["failed"] += 1
                continue
            spec = case["check"]
            ref = None
            if checker.needs_reference(spec):
                if rec["key"] not in refs:
                    refs[rec["key"]] = checker.reference(spec)
                ref = refs[rec["key"]]
            # passes repeat the same inputs; check each distinct answer once
            memo = (rec["key"], json.dumps(rec["answer"], sort_keys=True))
            if memo not in verdicts:
                verdicts[memo] = checker.check(spec, rec["answer"], ref)
            verdict = verdicts[memo]
            if spec["type"] == "experiment":
                first = fingerprints.setdefault(rec["key"],
                                                rec["answer"]["fingerprint"])
                if rec["answer"]["fingerprint"] != first:
                    verdict = {"status": "wrong", "problems": [
                        "report fingerprint differs between passes"]}
            rec["verdict"] = verdict["status"]
            rec["problems"] = verdict["problems"]
            if verdict["status"] == "wrong":
                counts["wrong"] += 1
                counts["failed"] += 1
            elif verdict["status"] == "unverified":
                counts["unverified"] += 1
    return counts


# ---------------------------------------------------------------------------
# one workload


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        cases = workloads.timed_cases(workload, seed)
    except ValueError as exc:
        raise BenchError(str(exc)) from exc
    # set-up samples before and after the run, so that one burst of
    # outside load does not cover them all
    setup_spec = _spec(workload, "setup", [], 0.0, False, 0)
    extra = SETUP_SAMPLES - 1
    setup = [run_worker(setup_spec)["setup_s"] for _ in range(extra // 2)]
    spec = _spec(workload, "run", cases, seconds, trace, MIN_PASSES)
    result = run_worker(spec)
    setup.append(result["setup_s"])
    setup += [run_worker(setup_spec)["setup_s"]
              for _ in range(extra - extra // 2)]
    passes = result["passes"]
    t0 = time.perf_counter()
    counts = check_records(cases, passes)
    check_s = time.perf_counter() - t0

    plain = [p for p in passes if not p["traced"]]
    latencies = [op["latency_s"] for p in plain for op in p["ops"]]
    best = _best_of_passes(plain, len(cases))
    tail_p = tail_percentile(len(latencies))
    attempted = max(counts["attempted"], 1)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (sum(best), len(plain)),
        "op_p50_ms": (1e3 * statistics.median(best), len(best)),
        "op_tail_ms": ((1e3 * _percentile(latencies, tail_p), len(latencies))
                       if tail_p is not None else (None, len(latencies))),
        "fail_ratio": (counts["failed"] / attempted, attempted),
        "wrong_ratio": (counts["wrong"] / attempted, attempted),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }
    out = {"workload": workload, "seed": seed, "cases": cases,
           "passes": passes, "counts": counts, "metrics": metrics,
           "tail_percentile": tail_p, "check_s": check_s,
           "threads": result["threads"]}
    if trace:
        traced = [p for p in passes if p["traced"]]
        out["trace"] = result["trace"]
        out["missing_spans"] = result.get("missing_spans", [])
        out["overhead_s"] = (sum(_best_of_passes(traced, len(cases)))
                             - metrics["wall_s"][0])
        out["layer_metrics"] = layer_metrics(result["trace"])
    return out


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics (per traced pass) from the worker's span totals."""
    from layers import LAYERS, LP_ERRORS, WORK_COUNTERS, per_layer_metrics

    spans, counters = trace["spans"], trace["counters"]
    errors = trace["errors"]
    values = {}
    layer_ms = {}
    for layer, (_, names) in LAYERS.items():
        layer_ms[layer] = 0.0
        for span in names:
            got = spans.get(span, {"calls": 0, "self_s": 0.0})
            values[f"{span}.calls"] = got["calls"]
            values[f"{span}.self_ms"] = 1e3 * got["self_s"]
            layer_ms[layer] += 1e3 * got["self_s"]
            if span in WORK_COUNTERS:
                key = f"{span}.{WORK_COUNTERS[span]}"
                values[key] = counters.get(key, 0)
    grid_calls = values["minimax.solve_grid_minimax.calls"]
    grid_errors = sum(v for k, v in errors.items()
                      if k.startswith("minimax.solve_grid_minimax.errors."))
    values["minimax.refine_rounds"] = counters.get("minimax.refine_rounds", 0)
    values["minimax.exchange_rounds"] = counters.get(
        "minimax.exchange_rounds", 0)
    values["minimax.working_points_max"] = trace["maxima"].get(
        "minimax.working_points_max", 0)
    values["minimax.lp_per_solve"] = (
        values["minimax.exchange_rounds"] / grid_calls if grid_calls else 0.0)
    values["minimax.solve_ok_ratio"] = (
        (grid_calls - grid_errors) / grid_calls if grid_calls else 0.0)
    for name in LP_ERRORS:
        values[f"simplex.errors.{name}"] = errors.get(
            f"simplex.solve_lp.errors.{name}", 0)
    for layer, ms in layer_ms.items():
        values[f"layer.{layer}.self_ms"] = ms
    values["bench.op.self_ms"] = 1e3 * spans.get(
        "bench.op", {"self_s": 0.0})["self_s"]
    return {name: (values[name], unit) for name, unit in per_layer_metrics()}


# ---------------------------------------------------------------------------
# output


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_end_to_end(res: dict) -> None:
    c = res["counts"]
    print(f"== {res['workload']} (seed {res['seed']}): "
          f"{len(res['cases'])} cases x {len(res['passes'])} passes")
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        value, n = res["metrics"][name]
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{res['tail_percentile']})"
        print(f"  {name:<12} {_fmt(value):>12} {units[name]:<6} n={n}{extra}")
    print(f"  attempted {c['attempted']}, failed {c['failed']}, wrong "
          f"{c['wrong']}, unverified {c['unverified']}; checking took "
          f"{res['check_s']:.2f} s")
    print(f"  threads: {', '.join(f'{k}={v}' for k, v in res['threads'].items())}")
    _print_problems(res)


def _print_problems(res: dict) -> None:
    seen = set()
    for p in res["passes"]:
        for op in p["ops"]:
            if op["verdict"] == "ok" or op["key"] in seen:
                continue
            seen.add(op["key"])
            why = op.get("detail") or "; ".join(op.get("problems", []))
            print(f"  {op['verdict']:<10} {op['key']}: {why}")


def print_layers(res: dict) -> None:
    print(f"== {res['workload']} traced (seed {res['seed']}): per traced pass,"
          f" tracing overhead {res['overhead_s']:+.3f} s per pass, "
          f"{res['trace']['span_count']} spans in {res['trace']['file']}")
    if res["missing_spans"]:
        print(f"  spans not found: {', '.join(res['missing_spans'])}")
    for name, (value, unit) in res["layer_metrics"].items():
        if value:
            print(f"  {name:<48} {_fmt(value):>12} {unit}")


def result_line(res: dict, trace: bool) -> str:
    c = res["counts"]
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in res["layer_metrics"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": res["metrics"][k][0], "unit": units[k]}
                   for k in REPORTED}
    correct = c["failed"] == 0 and c["unverified"] == 0
    return json.dumps({"correct": correct, "attempted": c["attempted"],
                       "failed": c["failed"], "metrics": metrics})


def census(names, seed: int) -> dict:
    """Every case once, timed or not; returns per-workload counts."""
    summary = {}
    for workload in names:
        cases = workloads.cases(workload, seed)
        spec = _spec(workload, "run", cases, 0.0, False, 1)
        passes = run_worker(spec)["passes"]
        counts = check_records(cases, passes)
        print(f"== census {workload} (seed {seed})")
        for op in passes[0]["ops"]:
            why = op.get("detail") or "; ".join(op.get("problems", []))
            print(f"  {op['verdict']:<10} {op['latency_s']:8.3f} s "
                  f"{op['key']}  {why}")
        attempted = counts["attempted"]
        print(f"  fail_ratio {counts['failed']}/{attempted}, wrong_ratio "
              f"{counts['wrong']}/{attempted}, unverified "
              f"{counts['unverified']}")
        summary[workload] = dict(counts, verdicts={
            op["key"]: [op["verdict"], op.get("detail")
                        or "; ".join(op.get("problems", []))]
            for op in passes[0]["ops"]})
    return summary


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": THREAD_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="timed: " + ", ".join(workloads.TIMED))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="census, then every timed workload untraced "
                             "and traced")
    parser.add_argument("--census", action="store_true",
                        help="every case once, with its verdict")
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)
    try:
        if args.census:
            names = [args.workload] if args.workload else workloads.WORKLOADS
            summary = census(names, args.seed)
            print(json.dumps({"census": summary, "seed": args.seed,
                              "environment": environment()}))
            return 0
        if args.all:
            census(workloads.WORKLOADS, args.seed)
            results = [measure(w, args.seed, args.seconds, False)
                       for w in workloads.TIMED]
            for res in results:
                print_end_to_end(res)
            for w in workloads.TIMED:
                print_layers(measure(w, args.seed, args.seconds, True))
            return 0
        if args.workload is None:
            parser.error("give --workload, --all or --census")
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        print_layers(res)
    else:
        print_end_to_end(res)
    print(result_line(res, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
