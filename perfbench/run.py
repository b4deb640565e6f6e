"""metricfit benchmark: seeded synthetic corpora through the public CLI.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout. One run:

1. for ``--seconds`` seconds, repeats: set up the workload's inputs twice
   (corpus generation, and for some workloads ingest and a scorer), then
   start a fresh interpreter (``stages.py``) that makes one pass over the
   workload's timed stages;
2. reports the median set-up time as ``setup_s`` and the medians of the
   passes' ``wall_s``, ``cpu_s`` and ``peak_rss_mb``;
3. with ``--trace 1``, makes one more pass with the per-layer tracer
   installed and reports the per-layer metrics instead.

Every stage call is checked: it must exit 0, pass its output checks and
give the same output-tree sha256 on every pass of the run, traced or not.
The last line of stdout is the JSON result; the per-pass details (stage
times, hashes, versions, load average) and the traced spans are written
under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported, here and in
# every child, so that a run uses one core of a shared machine.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUPS_PER_PASS = 2
RUN_LIMIT_S = 170  # every run, set-up and traced pass included, ends within this

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name == "metrics.toy.dense_bigram_bytes":
        return "computed_bytes"  # distinct previous tokens x vocabulary x 8
    for suffix, unit in ((".ns_per_token", "ns"), (".us_per_pair", "us"),
                         (".us_per_resample", "us"), (".ms_per_call", "ms"),
                         ("_ratio", "ratio"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_pass(workload, seed: int, inputs_dir: Path, out: Path, deadline: float,
             spans: Path | None = None) -> dict:
    """One child interpreter over the timed stages; its JSON, or an error."""
    command = [sys.executable, str(ROOT / "perfbench" / "stages.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--inputs", str(inputs_dir), "--out", str(out)]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"pass exited {done.returncode}: {done.stderr[-2000:]}"}
    return json.loads(lines[-1])


def stage_failures(workload, passes: list[dict]) -> tuple[int, list[str]]:
    """Failed stage calls across passes, and why.

    A call fails if it exits non-zero, fails an output check, never runs
    because an earlier stage failed, or hashes differently from the first
    pass that produced that stage's output.
    """
    reference: dict[str, str] = {}
    failed, reasons = 0, []
    for index, result in enumerate(passes):
        by_stage = {entry["stage"]: entry for entry in result.get("stages", [])}
        for stage in workload.stages:
            entry = by_stage.get(stage)
            if entry is None:
                reason = result.get("error", "not run after an earlier failure")
            elif entry["exit"] != 0:
                reason = f"exit {entry['exit']}"
            elif entry["problems"]:
                reason = "; ".join(entry["problems"])
            elif reference.setdefault(stage, entry["sha256"]) != entry["sha256"]:
                reason = "output sha256 differs from the first pass"
            else:
                continue
            failed += 1
            reasons.append(f"pass {index} {stage}: {reason}")
    return failed, reasons


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from metricfit.metrics import ToyScorer
    from workloads import WORKLOADS, Inputs, set_up

    workload = WORKLOADS[name]
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    run_dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    try:
        setup_times: list[float] = []

        def fresh_inputs() -> Path:
            """Set up anew, timed; earlier set-ups are deleted."""
            directory = run_dir / f"setup{len(setup_times)}"
            start = time.perf_counter()
            set_up(workload, seed, directory)
            setup_times.append(time.perf_counter() - start)
            if len(setup_times) > 1:
                shutil.rmtree(run_dir / f"setup{len(setup_times) - 2}")
            return directory

        passes = []
        measure_until = time.perf_counter() + seconds
        while not passes or time.perf_counter() < measure_until:
            # set-ups are spread over the run like the passes, so that both
            # medians see the same share of a busy machine
            for _ in range(SETUPS_PER_PASS):
                inputs_dir = fresh_inputs()
            passes.append(run_pass(workload, seed, inputs_dir,
                                   run_dir / f"pass{len(passes)}", deadline))
        inputs = Inputs.in_directory(inputs_dir, workload)
        if inputs.scorer is not None:
            ToyScorer.load(inputs.scorer)  # the set-up scorer must reload
        record["setup_s"] = setup_times
        timed = [p for p in passes if "wall_s" in p]
        metrics = {
            key: statistics.median(p[key] for p in timed) if timed else 0.0
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        metrics["setup_s"] = statistics.median(setup_times)
        if trace:
            spans = results_dir / f"{name}-seed{seed}-spans.jsonl"
            traced = run_pass(workload, seed, inputs_dir, run_dir / "traced",
                              deadline, spans)
            passes.append(traced)
            layers = dict(traced.get("layers", {}))
            layers["trace.overhead_s"] = traced.get("wall_s", 0.0) - metrics["wall_s"]
            metrics = layers
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed, reasons = stage_failures(workload, passes)
    attempted = len(workload.stages) * len(passes)
    record.update(passes=passes, failures=reasons, metrics=metrics,
                  run_s=time.perf_counter() - started)
    with open(results_dir / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)

    units = END_TO_END_UNITS if not trace else {m: layer_unit(m) for m in metrics}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in metrics},
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")

    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"== {name} (seed {args.seed}, failed {result['failed']}"
              f"/{result['attempted']} stage calls)")
        for metric, entry in result["metrics"].items():
            print(f"{metric:44s} {entry['value']:>16.6f} {entry['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "metricfit" / "__init__.py").is_file():
        print(f"error: no metricfit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    # the checkout's own sources, never an installed copy
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.exit(main())
