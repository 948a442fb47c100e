"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload two_row --seed 1 --mode plain

Modes: ``setup`` stops after set-up; ``plain`` runs the batch untraced;
``spans`` and ``counts`` run it under the matching tracer (tracer.py).
The pass runs one item at a time, checks every answer after the timed
calls (with the tracer removed), and prints one JSON line.

A fresh interpreter per pass matters: ``quantum_binomial``, the oracle's
image and coset caches and ``reduced_word`` are process-wide caches, so a
second pass in the same process would time cache hits.
"""

from __future__ import annotations

import time

SETUP_STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import speed  # noqa: E402

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import heckehom.cli as cli  # noqa: E402
import heckehom.straighten as straighten  # noqa: E402
from heckehom.combinat import Partition, Tableau  # noqa: E402

import workloads  # noqa: E402

FAILURES_SHOWN = 5
# Started when set-up ends: probes during imports read a cold process.
CLOCK = speed.SpeedTrace()


class Pass:
    """Timed items of one pass and the problems found in their answers."""

    def __init__(self) -> None:
        self.items: list[tuple[float, float]] = []  # (start, elapsed)
        self.answers: list[str] = []
        self.problems: list[str] = []
        self.failed = 0

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < FAILURES_SHOWN:
            self.problems.append(f"item {index}: {message}")


def _call_cli(argv: list[str], result: Pass) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is one failed item, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        result.items.append((started, time.perf_counter() - started))
    return code, out.getvalue(), err.getvalue(), error


def setup(workload: str, seed: int, items: int | None, workdir: Path) -> list:
    """Build the pass's inputs: everything before the first timed call."""
    reference = workloads.load_reference()
    if workload == "oracle":
        phi = workloads.relabelling(seed, reference["oracle_max_value"])
        cases = reference["oracle"][:items]
        workdir.mkdir(parents=True, exist_ok=True)
        batch = []
        for index, case in enumerate(cases):
            path = workdir / f"item{index:03d}.json"
            path.write_text(json.dumps(workloads.relabel_comb(case["comb"], phi)),
                            encoding="utf-8")
            batch.append((str(path), case["expect_exit"]))
        return batch
    phi = workloads.relabelling(seed, workloads.MAX_VALUE)
    base = workloads.two_row_base() if workload == "two_row" else workloads.w18_base()
    digests = reference[workload]
    batch = []
    for rows, want in list(zip(base, digests))[:items]:
        rows = workloads.relabel_rows(rows, phi)
        if workload == "two_row":
            batch.append((rows, workloads.rows_text(rows), want, phi))
        else:
            shape = Partition([len(r) for r in rows])
            batch.append((rows, Tableau(shape, rows), want, phi))
    return batch


def time_two_row(batch: list, result: Pass) -> list:
    return [_call_cli(["straighten", text, "--format", "json"], result)
            for _, text, _, _ in batch]


def time_oracle(batch: list, result: Pass) -> list:
    return [_call_cli(["verify", path], result) for path, _ in batch]


def time_w18(batch: list, result: Pass) -> list:
    answers = []
    for _, tab, _, _ in batch:
        started = time.perf_counter()
        try:
            answer = straighten.semistandardize(tab)
        except Exception as exc:  # a crash is one failed item, not a failed run
            answer = exc
        result.items.append((started, time.perf_counter() - started))
        answers.append(answer)
    return answers


def check_two_row(batch: list, outputs: list, result: Pass) -> None:
    for index, ((rows, _, want, phi), (code, out, err, error)) in enumerate(
            zip(batch, outputs)):
        try:
            data = json.loads(out)
        except ValueError:
            data = None
        if error is not None or code != 0 or err or data is None:
            result.fail(index, f"exit {code}, error {error}, stderr {err!r}, "
                               f"stdout {out[:200]!r}")
            result.answers.append("")
            continue
        _check(index, rows, data, want, phi, result)


def check_w18(batch: list, answers: list, result: Pass) -> None:
    for index, ((rows, _, want, phi), answer) in enumerate(zip(batch, answers)):
        if isinstance(answer, Exception):
            result.fail(index, f"{type(answer).__name__}: {answer}")
            result.answers.append("")
            continue
        _check(index, rows, answer.to_json(), want, phi, result)


def _check(index: int, rows, data, want: str, phi, result: Pass) -> None:
    problem, got = workloads.check_expansion(rows, data, phi)
    if problem is None and got != want:
        problem = f"digest {got[:12]} differs from the reference {want[:12]}"
    if problem is not None:
        result.fail(index, problem)
    result.answers.append(got)


VERDICT = {0: "PASS", 4: "FAIL"}


def check_oracle(batch: list, outputs: list, result: Pass) -> None:
    for index, ((_, expect), (code, out, err, error)) in enumerate(
            zip(batch, outputs)):
        line = f"check combination on Specht module: {VERDICT[expect]}\n"
        if error is not None or code != expect or out or err != line:
            result.fail(index, f"expected exit {expect}, got exit {code}, "
                               f"error {error}, stderr {err!r}")
        result.answers.append(f"exit {code}")


TIMERS = {"two_row": time_two_row, "w18": time_w18, "oracle": time_oracle}
CHECKERS = {"two_row": check_two_row, "w18": check_w18, "oracle": check_oracle}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "spans", "counts"),
                        required=True)
    parser.add_argument("--items", type=int, default=None,
                        help="run only the first N items of the batch")
    args = parser.parse_args()

    workdir = HERE.parent / f".perfbench_work-{args.workload}-{os.getpid()}"
    try:
        batch = setup(args.workload, args.seed, args.items, workdir)
        setup_elapsed = time.perf_counter() - SETUP_STARTED
        CLOCK.start()
        report = {"mode": args.mode}
        if args.mode != "setup":
            report.update(_measure(args.workload, args.mode, batch))
    finally:
        CLOCK.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_s"] = CLOCK.normalize(SETUP_STARTED, setup_elapsed)
    print(json.dumps(report))
    return 0


def _measure(workload: str, mode: str, batch: list) -> dict:
    tracer = None
    if mode != "plain":
        import tracer as tracing
        tracer = tracing.Spans() if mode == "spans" else tracing.Counts()
        tracer.install()
    result = Pass()
    try:
        outputs = TIMERS[workload](batch, result)
    finally:
        CLOCK.stop()
        if tracer is not None:
            tracer.uninstall()
    CHECKERS[workload](batch, outputs, result)
    latencies = [CLOCK.normalize(start, elapsed) for start, elapsed in result.items]
    report = {
        "latencies": latencies,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(elapsed for _, elapsed in result.items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(batch),
        "failed": result.failed,
        "problems": result.problems,
        "answers": result.answers,
    }
    if tracer is not None:
        report["layers"] = tracer.report()
    return report


if __name__ == "__main__":
    sys.exit(main())
