"""Benchmark of the ``berrydd`` command line, one workload per run.

    python3 bench/run.py --workload theta_sweep --seed 2024 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30 --results bench/results/baseline.json

Each iteration is a fresh interpreter (``worker.py``) that imports
``berrydd.cli``, loads the workload config and calls ``berrydd.cli.main``
once, as a user's CLI call does.  Iterations repeat until the next one
would overrun ``--seconds`` (at least three, four when traced).  Iteration
``i`` runs at seed ``workloads.iteration_seed(seed, i)``, so the first runs
at ``--seed`` and a run's medians cover several inputs.  Every
iteration's CSVs are checked against the golden output (``golden.py``); a
row that raised or failed the check is counted in ``failed``.

The host's speed is probed during each call (``speed.py``), and the gated
times are in reference seconds (``ref_s``): measured time less probe time,
times the host's speed relative to a fixed reference.  A shared host's
co-tenants slow whole runs by up to ~1.8x; the probe cancels that, where
no statistic over a run can.  ``wall_ref_s``, ``realizations_per_ref_s``
and ``cpu_ref_s`` are medians over iterations; so are ``setup_s`` (raw
seconds from process creation to the ``ready`` line) and ``peak_rss_mb``.
The raw ``wall_s``, ``realizations_per_s`` and ``cpu_s`` and the host
speed are printed and kept in ``--results`` files, but not gated.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
iterations alternate untraced and traced; the traced ones record spans of
every layer from outside the package (``spans.py``) and give the per-layer
metrics in raw seconds, with ``host.speed`` to rescale them; and
``trace.overhead_ref_s`` is the median traced minus the median untraced
``wall_ref_s``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--results`` also writes the full record,
with provenance, to a file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 4  # two untraced, two traced
# stop starting iterations well inside the 180 s a run may take
HARD_LIMIT_S = 140.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _iterate(workload, seed, work, traced, time_left):
    """Run one worker; returns its record plus the measured ``setup_s``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work)]
    if traced:
        cmd += ["--trace", "--spans", str(work.parent / f"spans-{workload}-{seed}.json")]
    err_path = work / "worker.err"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(time_left, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} iteration did not finish in time")
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n"
                         + err_path.read_text()[-2000:])
    record = json.loads(lines[-1])
    record.update(seed=seed, setup_s=setup_s, traced=traced)
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations for about ``seconds``; returns the aggregated record."""
    work_root = ROOT / ".bench_work"
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    samples = []
    try:
        need = MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            traced = trace and len(samples) % 2 == 1
            iteration_seed = workloads.iteration_seed(seed, len(samples))
            cfg = workloads.config(workload, iteration_seed)
            if cfg is not None:
                (work / "config.json").write_text(json.dumps(cfg))
            samples.append(_iterate(workload, iteration_seed, work, traced,
                                    HARD_LIMIT_S - elapsed))
            elapsed = time.perf_counter() - start
            next_end = elapsed * (len(samples) + 1) / len(samples)
            if next_end > HARD_LIMIT_S or (len(samples) >= need and next_end > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, trace, samples)


# printed and kept in results files, not gated: they move with the host's load
UNGATED_UNITS = {"wall_s": "s", "realizations_per_s": "1/s", "cpu_s": "s", "host.speed": "x"}


def _ref_s(sample, key):
    """A time of ``sample`` in reference seconds (see ``speed.py``)."""
    return (sample[key] - sample["probe_s"]) * sample["speed"]


def summarize(workload, seed, trace, samples) -> dict:
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    median = statistics.median
    end_to_end = {
        "wall_ref_s": median(_ref_s(s, "wall_s") for s in plain),
        "realizations_per_ref_s": median(s["realizations"] / _ref_s(s, "wall_s") for s in plain),
        "cpu_ref_s": median(_ref_s(s, "cpu_s") for s in plain),
        "setup_s": median(s["setup_s"] for s in samples),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in plain),
        "wall_s": median(s["wall_s"] for s in plain),
        "realizations_per_s": median(s["realizations"] / s["wall_s"] for s in plain),
        "cpu_s": median(s["cpu_s"] for s in plain),
        "host.speed": median(s["speed"] for s in plain),
    }
    per_layer = {}
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = statistics.median([s["layers"][name] for s in traced])
        per_layer["cli.bytes_written"] = statistics.median([s["bytes_written"] for s in traced])
        # only the first iteration runs at the run's seed, the golden one by default
        per_layer["cli.rows_bit_identical"] = max(s["bit_identical"] for s in samples)
        per_layer["host.speed"] = median(s["speed"] for s in traced)
        per_layer["trace.overhead_ref_s"] = (
            median(_ref_s(s, "wall_s") for s in traced) - end_to_end["wall_ref_s"])
    problems = [p for s in samples for p in s["problems"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "iterations": len(samples),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems[:10],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "environment": samples[0]["environment"],
        "samples": [{k: v for k, v in s.items() if k not in ("environment", "problems")}
                    for s in samples],
    }


def provenance(seed: int) -> dict:
    return {
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_commit": _git_commit(),
        "seed": seed,
        "nproc": workloads.nproc(),
    }


def metric_units() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads(SPEC_PATH.read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def report_line(record: dict, units: dict) -> dict:
    """The last stdout line of a run: end-to-end metrics, or per-layer when traced."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record[kind][n], "unit": u} for n, u in units[kind].items()},
    }


def print_table(record: dict, units: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"iterations={record['iterations']}")
    rows = [(n, record["end_to_end"][n], u)
            for n, u in {**units["end_to_end"], **UNGATED_UNITS}.items()]
    rows.append(("failed_frac", record["failed_frac"],
                 f"({record['failed']}/{record['attempted']} rows)"))
    rows += [(n, record["per_layer"][n], u) for n, u in units["per_layer"].items()
             if n in record["per_layer"]]
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def _layer_split(per_layer: dict, traced_wall_s: float) -> dict:
    """Share of traced ``wall_s`` per layer, for comparing with older profiles."""
    busy = {
        "evolve_batch": per_layer["propagator.propagate.busy_s"]
        + per_layer["propagator.reference.busy_s"],
        "noise": per_layer["noise.substream.busy_s"] + per_layer["noise.draw.busy_s"]
        + per_layer["noise.filter.busy_s"],
        "substream": per_layer["noise.substream.busy_s"],
        "bootstrap": per_layer["ensemble.bootstrap.busy_s"],
        "coherence": per_layer["propagator.coherence.busy_s"],
        "run_ensemble_self": per_layer["ensemble.run_ensemble.self_s"],
        "schedule": per_layer["schedule.build.busy_s"],
        "analytics": per_layer["analytics.busy_s"],
        "cli_write": per_layer["cli.write.busy_s"],
    }
    return {k: v / traced_wall_s for k, v in busy.items()}


def _write_json(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {path}")


def run_all(seed: int, seconds: float, results: Path | None, units: dict) -> int:
    out = {**provenance(seed), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads.NAMES:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        print_table(plain, units)
        print_table(traced, units)
        traced_wall = statistics.median([s["wall_s"] for s in traced["samples"] if s["traced"]])
        out["environment"] = plain["environment"]
        out["workloads"][workload] = {
            "end_to_end": plain["end_to_end"],
            "failed_frac": (plain["failed"] + traced["failed"])
            / (plain["attempted"] + traced["attempted"]),
            "per_layer": traced["per_layer"],
            "split_of_traced_wall": _layer_split(traced["per_layer"], traced_wall),
            "untraced_samples": plain["samples"],
            "traced_run_samples": traced["samples"],
        }
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
    if results is not None:
        _write_json(results, out)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="berrydd CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED,
                        help="master seed of the workload's inputs (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="also write the full record here")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "berrydd" / "cli.py").is_file():
        print(f"error: no berrydd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units()
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.results, units)
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_table(record, units)
    if args.results is not None:
        _write_json(args.results, {**provenance(args.seed), **record})
    print(json.dumps(report_line(record, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
