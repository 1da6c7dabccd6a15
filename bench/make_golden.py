"""Write the golden results CSVs: each workload's CLI call at the golden seed.

    python3 bench/make_golden.py

Run it only when the program's outputs are meant to change; the check in
``golden.py`` accepts any seed of an unchanged program without it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import berrydd.cli as cli  # noqa: E402


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        with tempfile.TemporaryDirectory(dir=workloads.GOLDEN_DIR) as tmp:
            tmp = Path(tmp)
            cfg = workloads.config(name, workloads.GOLDEN_SEED)
            if cfg is not None:
                (tmp / "config.json").write_text(json.dumps(cfg))
            argv = workloads.cli_args(name, workloads.GOLDEN_SEED, tmp / "out", tmp / "config.json")
            if cli.main(argv) != 0:
                return 1
            shutil.copyfile(tmp / "out" / workloads.outputs(name)[0], workloads.golden_path(name))
        print(f"wrote {workloads.golden_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
