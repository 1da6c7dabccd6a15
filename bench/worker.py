"""One benchmark iteration in a fresh interpreter.

Imports ``berrydd.cli`` from the checkout's ``src``, loads the workload
config, prints ``ready``, calls ``berrydd.cli.main`` once and checks the
files it wrote against the golden output.  The last line on stdout is a
JSON object with the measurements.  ``run.py`` times start-up from process
creation to the ``ready`` line.  A ``speed.SpeedProbe`` runs during the
call, so ``run.py`` can rescale its times to reference seconds.

    python3 bench/worker.py --workload theta_sweep --seed 2024 --work-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_s() -> float:
    """User + system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the trace's spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import berrydd.cli as cli

    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"berrydd imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cfg = workloads.config(args.workload, args.seed)
    config_path = args.work_dir / "config.json"
    if cfg is not None:
        with open(config_path) as fh:
            cli.config_from_dict(json.load(fh))
    print("ready", flush=True)

    import golden
    import spans
    import speed

    out = args.work_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = workloads.cli_args(args.workload, args.seed, out, config_path)
    probe = speed.SpeedProbe()
    rec = spans.install_berrydd_probes() if args.trace else None
    error = None
    cpu0 = _cpu_s()
    probe.start()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
        if code != 0:
            error = f"cli.main returned {code}"
    except Exception:  # a crashing call counts as failed rows, not a crashed benchmark
        error = traceback.format_exc()
    finally:
        probe.stop()
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.restore()

    golden_text = workloads.golden_path(args.workload).read_text()
    names = workloads.outputs(args.workload)
    missing = [n for n in names if not (out / n).is_file()]
    if error is None and missing:
        error = f"missing outputs {missing}"
    realizations = 0
    if error is None:
        text = (out / names[0]).read_text()
        adaptive = (cfg["adaptive_target"], cfg["realizations"]) if cfg and cfg.get("adaptive") else None
        result = golden.check(text, golden_text, args.seed, adaptive)
        realizations = sum(int(r["realizations"]) for r in golden.parse(text)[1])
    else:
        n = len(golden.parse(golden_text)[1])
        result = golden.CheckResult(n, n, 0, [error])

    record = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probe.probe_s(),
        "speed": probe.speed(),
        "realizations": realizations,
        "attempted": result.attempted,
        "failed": result.failed,
        "bit_identical": result.bit_identical,
        "problems": result.problems[:10],
        "bytes_written": sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0,
        "layers": spans.layer_metrics(rec) if rec is not None else None,
        "environment": _environment(),
    }
    if rec is not None and args.spans is not None:
        rec.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
