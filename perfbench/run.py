#!/usr/bin/env python3
"""Seeded benchmark of heckehom: straightening and the brute-force oracle.

    python3 perfbench/run.py --workload w18 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under the checkout (bytecode caches and
``.perfbench_work-*`` directories it removes again).

Workloads (inputs in workloads.py, known answers in reference.json):

* ``two_row``: 100 tableaux of shape (10, 10) through
  ``heckehom.cli.main(["straighten", rows, "--format", "json"])``.
* ``w18``: the ROADMAP's reference batch W18 through the library
  ``semistandardize``.
* ``oracle``: stored combinations at degree 7 and 8 through
  ``heckehom.cli.main(["verify", file])``, with known verdicts.

Every pass runs in a fresh interpreter (worker.py), one item at a time:
one client in a closed loop, no pools.  With ``--trace 0`` the run sets up
several times, then repeats the batch in fresh interpreters while another
pass fits in ``--seconds`` at reference speed (speed.py), and reports the
end-to-end metrics.  With
``--trace 1`` it runs three passes, untraced, with spans and with counters
(tracer.py), and reports the per-layer metrics.  The last line of standard
output is the result as JSON; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKER = HERE / "worker.py"
PACKAGE = ROOT / "src" / "heckehom"
SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0
SELF_TEST_ITEMS = {"two_row": 10, "w18": 12, "oracle": 6}


class BenchError(RuntimeError):
    """The benchmark itself could not complete a pass."""


def worker(workload: str, seed: int, mode: str, deadline: float,
           items: int | None = None) -> dict:
    """Run one pass in a fresh interpreter and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} pass")
    argv = [sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    if items is not None:
        argv += ["--items", str(items)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("HECKEHOM_ORACLE_CAP", None)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the {mode} pass did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"the {mode} pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def build(deadline: float) -> None:
    """Compile the package and the benchmark to bytecode before timing."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(PACKAGE), str(HERE)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"compiling failed:\n{proc.stdout}{proc.stderr}")


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, list[dict]]:
    setups = [worker(workload, seed, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    # Another pass runs while it fits in the budget at reference speed, so
    # the number of passes follows the code's speed, not the host's; real
    # time gets twice the budget.
    started = time.monotonic()
    reps: list[dict] = []
    while True:
        reps.append(worker(workload, seed, "plain", deadline))
        more = (len(reps) + 1) / len(reps)
        measured = sum(rep["wall_s"] for rep in reps)
        if (measured * more > seconds
                or (time.monotonic() - started) * more > 2 * seconds):
            break
    # An item's latency is its mean over the passes; percentiles run over items.
    latencies = [statistics.fmean(times)
                 for times in zip(*(rep["latencies"] for rep in reps))]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    above = sum(1 for x in latencies if x > p90)
    print(f"{workload}: {len(reps)} pass(es) of {len(latencies)} items, "
          f"{len(latencies)} latency samples, {above} above p90; raw wall "
          + ", ".join(f"{rep['raw_wall_s']:.3f}" for rep in reps) + " s")
    metrics = {
        "wall_s": (statistics.median(rep["wall_s"] for rep in reps), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups + reps), "s"),
    }
    return metrics, reps


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Self times come from the spans pass; counts from the counters pass.
SELF_TIMES = ("straighten.semistandardize", "straighten.embed_two_row",
              "garnir.step", "garnir.lincomb.to_json", "garnir.lincomb.from_json",
              "hecke_oracle.specht_check", "hecke_oracle.image_h3",
              "hecke_oracle.mul_t", "hecke_oracle.mul_right_gen", "cli.main")
COUNTS = ("straighten.find_violating_window.calls", "straighten.embed_two_row.calls",
          "straighten.output_terms", "garnir.step.calls",
          "garnir.step.distinct_windows", "garnir.step.terms_out",
          "garnir.lincomb.constructed", "garnir.lincomb.add.calls",
          "garnir.lincomb.add_term.calls", "combinat.tableau.constructed",
          "combinat.multiset.constructed", "combinat.tableau.hash.calls",
          "combinat.tableau.type.calls", "qcoeff.mul.calls", "qcoeff.add.calls",
          "hecke_oracle.specht_check.calls", "hecke_oracle.image_h3.calls",
          "hecke_oracle.mul_t.calls", "hecke_oracle.mul_right_gen.calls",
          "hecke_oracle.elem.peak_terms", "cli.main.calls")


def per_layer(workload: str, seed: int, deadline: float,
              items: int | None = None) -> tuple[dict, list[dict], list[str]]:
    plain = worker(workload, seed, "plain", deadline, items)
    spans = worker(workload, seed, "spans", deadline, items)
    counts = worker(workload, seed, "counts", deadline, items)
    s, c = spans["layers"], counts["layers"]
    problems = [f"{name}: {s[name]} calls under spans, {c[name]} under counters"
                for name in s if name.endswith(".calls") and s[name] != c[name]]
    for traced in (spans, counts):
        if traced["answers"] != plain["answers"]:
            problems.append(f"{traced['mode']} pass answers differ from the "
                            "untraced pass")
    metrics = {f"{name}.self_s": (s[f"{name}.self_s"], "s") for name in SELF_TIMES}
    metrics.update((name, (c[name], "count")) for name in COUNTS)
    steps, images = c["garnir.step.calls"], c["hecke_oracle.image_h3.calls"]
    binomials = c["qcoeff.quantum_binomial.hits"] + c["qcoeff.quantum_binomial.misses"]
    ratios = {
        "straighten.leaf_ratio":
            _ratio(c["straighten.leaves"], c["straighten.find_violating_window.calls"]),
        "garnir.step.repeat_ratio":
            _ratio(steps - c["garnir.step.distinct_windows"], steps),
        "qcoeff.quantum_binomial.hit_ratio":
            _ratio(c["qcoeff.quantum_binomial.hits"], binomials),
        "hecke_oracle.image_h3.repeat_ratio":
            _ratio(images - c["hecke_oracle.image_h3.distinct"], images),
        "trace.overhead_ratio": _ratio(spans["wall_s"], plain["wall_s"]),
        "trace.coverage": _ratio(s["total_self_s"], spans["raw_wall_s"]),
    }
    metrics.update((name, (value, "ratio")) for name, value in ratios.items())
    print(f"{workload}: traced wall {spans['wall_s']:.3f} s, counted wall "
          f"{counts['wall_s']:.3f} s, untraced wall {plain['wall_s']:.3f} s")
    return metrics, [plain, spans, counts], problems


def result_line(metrics: dict, passes: list[dict], problems: list[str]) -> str:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        problems = problems + p["problems"]
    for problem in problems:
        print(f"problem: {problem}")
    print(f"fail_ratio: {failed}/{attempted} = {_ratio(failed, attempted):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def self_test(deadline: float) -> int:
    """Traced passes repeat their counts exactly and match untraced answers."""
    ok = True
    for workload, items in SELF_TEST_ITEMS.items():
        metrics, passes, problems = per_layer(workload, 1, deadline, items)
        again = worker(workload, 1, "counts", deadline, items)
        if again["layers"] != passes[2]["layers"]:
            problems.append("two counted passes gave different counts")
        problems += [p for run in passes + [again] for p in run["problems"]]
        print(f"self-test {workload}: {'PASS' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget for untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that tracing is repeatable and changes no answer")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no package source at {PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        build(deadline)
        if args.self_test:
            return self_test(deadline)
        if args.trace:
            metrics, passes, problems = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, passes = end_to_end(args.workload, args.seed, args.seconds,
                                         deadline)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(metrics, passes, problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
