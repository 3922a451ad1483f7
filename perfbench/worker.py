"""One workload in its own process: import cotrig, set up, run passes.

Usage: python3 worker.py SPEC.json RESULT.json

The spec names the checkout root, the workload, its cases, the run
length and whether to trace.  The worker imports only the standard
library before it imports cotrig from ``<root>/src``, so ``setup_s``
covers the numpy and scipy imports cotrig pulls in.  It writes a JSON
result: set-up time, one record per operation per pass (latency, status
and the answer for the checker), peak RSS and, when traced, per-span
totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

START = time.perf_counter()


class OpTimeout(BaseException):
    """The per-operation time limit ran out."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation time limit exceeded")


def _import_cotrig(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cotrig
    # the package does not import cli; its import (jsonschema) is set-up too
    from cotrig import cli  # noqa: F401
    where = os.path.realpath(cotrig.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"cotrig resolved outside the checkout: {where}")
    return cotrig


class Workload:
    """Set-up state shared by the operations of one workload."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.out = spec["out_dir"]
        self.paths = {}
        self.captured = []

    def setup(self):
        from fractions import Fraction

        from cotrig import experiments, minimax
        name = self.spec["workload"]
        if name == "counterexample":
            from cotrig.ledger import make_empirical_ledger, make_proven_ledger
            from cotrig.mollifier import build_mollifier_table
            from cotrig.reports import write_json
            from workloads import (PROVEN_S_NORMS, TABLE_MEASURED,
                                   TOY_MEASURED, TOY_S_NORMS)

            def fractions(values):
                return [Fraction(v) for v in values]

            table = build_mollifier_table()
            ledgers = {
                "toy": make_empirical_ledger(
                    q=3, p=4, s_norms=fractions(TOY_S_NORMS),
                    measured=dict(zip(TOY_MEASURED,
                                      fractions(TOY_MEASURED.values()))),
                    gap=1, reference_b=Fraction(1, 4),
                    provenance={"source": "benchmark toy ledger"}),
                "table": make_empirical_ledger(
                    q=3, p=4,
                    s_norms=[Fraction(table.s_norm(j))
                             for j in range(table.max_order + 1)],
                    measured=dict(zip(TABLE_MEASURED,
                                      fractions(TABLE_MEASURED.values()))),
                    gap=1, reference_b=Fraction(1, 4),
                    provenance={"source": "benchmark table ledger"}),
                "proven": make_proven_ledger(
                    3, 4, s_norms=fractions(PROVEN_S_NORMS)),
            }
            for key, ledger in ledgers.items():
                path = os.path.join(self.out, f"ledger-{key}.json")
                write_json(path, ledger.to_dict())
                self.paths[f"{{ledger:{key}}}"] = path
        if name == "windows":
            captured = self.captured

            def capture(*args, **kwargs):
                result = minimax.solve_grid_minimax(*args, **kwargs)
                captured.append(result[0])
                return result

            experiments.solve_grid_minimax = capture

    def run(self, case: dict, op_dir: str):
        """Run one case; returns (status, detail).  Timed by the caller."""
        if case["kind"] == "window_floor":
            from cotrig import experiments, splines
            call = case["call"]
            r = call["r"]
            self.captured.clear()
            err, post = experiments.window_floor_solve(
                lambda x: splines.abs_power(r, x), call["n"], call["q"],
                call["b"], r, with_poly=True)
            return "ok", {"error": err, "post": post}
        from cotrig import cli
        argv = [self.paths.get(a, a) for a in case["argv"]] + ["--out", op_dir]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            return f"exit {code}", err.getvalue().strip()[-300:]
        return "ok", None

    def answer(self, case: dict, op_dir: str, detail):
        """What the checker needs, read back after the timed call."""
        if case["kind"] == "window_floor":
            detail["theta"] = [float(v) for v in self.captured[-1]]
            return detail
        kind = case["check"]["type"]
        if kind == "solve":
            with open(os.path.join(op_dir, "artifacts", "solution.json")) as fh:
                sol = json.load(fh)
            return {"coefficients": sol["coefficients"], "error": sol["error"],
                    "post_check_error": sol["post_check_error"]}
        if kind == "experiment":
            with open(os.path.join(op_dir, "report.json")) as fh:
                rep = json.load(fh)
            return {"fingerprint": rep["fingerprint"], "passed": rep["passed"]}
        art_name = {"partial-sum": "partial_sum", "fnb": "fnb",
                    "smooth": "smooth"}[case["check"]["kind"]]
        with open(os.path.join(op_dir, "artifacts", f"{art_name}.json")) as fh:
            art = json.load(fh)
        return {"summary": art["summary"]}


def _run_pass(workload: Workload, cases, tracer, op_limit_s: float) -> dict:
    records = []
    for index, case in enumerate(cases):
        op_dir = os.path.join(workload.out, f"op{index}")
        span = tracer.open("bench.op") if tracer is not None else None
        signal.setitimer(signal.ITIMER_REAL, op_limit_s)
        t0 = time.perf_counter()
        try:
            status, detail = workload.run(case, op_dir)
        except OpTimeout:
            status, detail = "timeout", f"over {op_limit_s:g} s"
        except MemoryError:
            status, detail = "MemoryError", "address-space limit reached"
        except Exception as exc:  # one failed operation must not end the run
            status, detail = type(exc).__name__, str(exc)[-300:]
        finally:
            latency = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if span is not None:
                tracer.close(span)
        rec = {"key": case["key"], "latency_s": latency, "status": status}
        if status == "ok":
            try:
                rec["answer"] = workload.answer(case, op_dir, detail)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                rec["status"] = "no answer"
                rec["detail"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["detail"] = detail
        records.append(rec)
    return {"wall_s": sum(r["latency_s"] for r in records),
            "traced": tracer is not None and tracer.active, "ops": records}


def _trace_summary(tracer, traced_passes: int, path: str) -> dict:
    from tracing import aggregate
    name_id, parent, start, end = tracer.arrays()
    spans = aggregate(tracer.names, name_id, parent, start, end)
    tracer.save(path)
    per = max(traced_passes, 1)
    return {"passes": traced_passes, "span_count": int(start.size),
            "spans": {k: {"calls": v["calls"] / per, "self_s": v["self_s"] / per}
                      for k, v in spans.items()},
            "counters": {k: v / per for k, v in tracer.counters.items()},
            "maxima": tracer.maxima,
            "errors": {k: v / per for k, v in tracer.errors.items()},
            "file": path}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    limit = int(spec["address_space_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    try:
        _import_cotrig(spec["root"])
    except ImportError as exc:
        print(f"cannot import cotrig from the checkout: {exc}", file=sys.stderr)
        return 3
    os.makedirs(spec["out_dir"], exist_ok=True)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    workload = Workload(spec)
    workload.setup()
    setup_s = time.perf_counter() - START
    result = {"setup_s": setup_s,
              "threads": {k: os.environ.get(k) for k in spec["thread_env"]}}
    if spec["mode"] == "run":
        signal.signal(signal.SIGALRM, _on_alarm)
        tracer = None
        if spec["trace"]:
            from tracing import Tracer, install
            tracer = Tracer()
            result["missing_spans"] = install(tracer)
        cases = spec["cases"]
        if tracer is not None:
            # untimed warm-up, so the tracing overhead compares warm passes
            _run_pass(workload, cases, None, spec["op_limit_s"])
        passes = []
        t0 = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if tracer is not None:
                tracer.active = traced
            passes.append(_run_pass(workload, cases,
                                    tracer if traced else None,
                                    spec["op_limit_s"]))
            enough = len(passes) >= spec["min_passes"]
            if tracer is not None:
                enough = enough and len(passes) >= 2
            if enough and time.perf_counter() - t0 >= spec["seconds"]:
                break
        result["passes"] = passes
        if tracer is not None:
            tracer.active = False
            result["trace"] = _trace_summary(
                tracer, sum(p["traced"] for p in passes), spec["trace_file"])
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
