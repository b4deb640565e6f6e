"""One pass over a workload's timed stages, in a fresh interpreter.

    python3 perfbench/stages.py --workload NAME --seed N --inputs DIR --out DIR
        [--spans FILE]

Runs each stage through ``metricfit.cli.main`` in-process, checks its
outputs, hashes its output tree and prints one JSON line. With ``--spans``
the per-layer tracer is installed first and its spans are written to FILE.
``run.py`` starts this script once per pass, so that peak memory is per
pass and no scorer cache carries over from one pass to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import METRICS, WORKLOADS, Inputs, Workload, quiet_cli, stage_argv  # noqa: E402

N_METRICS = len(METRICS.split(","))


def tree_sha256(directory: Path) -> str:
    """sha256 over the relative names and bytes of every file in a tree."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(directory).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(workload: Workload, stage: str, out: Path) -> list[str]:
    """Problems with one stage's outputs; empty when they are as expected."""
    from metricfit.metrics import ToyScorer

    problems = []
    if stage == "ingest":
        totals = _load_json(out / "summary.json")["totals"]
        if totals["segments"] != workload.n_segments:
            problems.append(f"ingest: {totals['segments']} segments")
        if totals["systems"] != workload.n_systems + 1:  # plus the human system
            problems.append(f"ingest: {totals['systems']} systems")
    elif stage == "rankings":
        manifest = _load_json(out / "manifest.json")
        with open(out / "train.tsv", encoding="utf-8") as handle:
            rows = sum(1 for _ in handle) - 1
        if manifest["rankings"] < 1 or rows != manifest["train"]:
            problems.append(f"rankings: manifest {manifest['train']}, train.tsv {rows}")
    elif stage == "train":
        scorer = ToyScorer.load(out / "scorer.json")
        if not all(math.isfinite(value) for value in scorer.theta):
            problems.append("train: scorer.json has a non-finite theta")
        if not _load_json(out / "training_report.json")["steps"]:
            problems.append("train: no training steps")
    elif stage == "score":
        with open(out / "scores.tsv", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        values = [line.split("\t")[-1] for line in lines[1:]]
        if len(values) != N_METRICS * workload.n_systems * workload.n_segments:
            problems.append(f"score: {len(values)} scores")
        if not all(math.isfinite(float(value)) for value in values):
            problems.append("score: non-finite value in scores.tsv")
    elif stage == "correlate":
        averages = _load_json(out / "correlations.json")["averages"]
        if len(averages) != N_METRICS or not all(
            _finite(row["segment_tau"]) and _finite(row["pairwise_accuracy"])
            for row in averages.values()
        ):
            problems.append("correlate: missing or non-finite averages")
    elif stage == "robustness":
        report = _load_json(out / "robustness.json")
        tables = [report["averages"]["segment_level"], report["averages"]["system_level"]]
        for context in report["contexts"]:
            tables += [context["segment_level"], context["system_level"]]
        for table in tables:
            if len(table) != N_METRICS or not all(
                _finite(row.get("ref_std")) and _finite(row.get("ref_mt"))
                for row in table.values()
            ):
                problems.append("robustness: a metric lacks ref_std or ref_mt")
                break
    return problems


def run_pass(workload: Workload, seed: int, inputs: Inputs, out: Path, tracer) -> dict:
    stages = []
    usage_start = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for stage in workload.stages:
        argv = stage_argv(workload, stage, inputs, out, seed)
        stage_start = time.perf_counter()
        if tracer is None:
            code = quiet_cli(argv)
        else:
            code = tracer.span(f"cli.{stage}", quiet_cli, argv)
        stages.append({"stage": stage, "exit": code,
                       "seconds": time.perf_counter() - stage_start})
        if code != 0:
            break
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall_s,
        "cpu_s": (usage.ru_utime - usage_start.ru_utime)
        + (usage.ru_stime - usage_start.ru_stime),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "stages": stages,
    }
    for entry in stages:
        if entry["exit"] == 0:
            stage_out = out / entry["stage"]
            try:
                entry["problems"] = check_outputs(workload, entry["stage"], stage_out)
            except (OSError, ValueError, KeyError, TypeError) as err:
                entry["problems"] = [f"{entry['stage']}: unreadable output: {err!r}"]
            entry["sha256"] = tree_sha256(stage_out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    import metricfit.cli  # noqa: F401  (imports stay outside the timed region)

    workload = WORKLOADS[args.workload]
    inputs = Inputs.in_directory(args.inputs, workload)
    tracer = None
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
        tracer.install()
    result = run_pass(workload, args.seed, inputs, args.out, tracer)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
