"""The golden check flags perturbed rows, and flagged rows count as failed.

    python3 -m pytest bench/test_golden.py
"""

from __future__ import annotations

import golden
import run
import workloads


def _golden(name):
    return workloads.golden_path(name).read_text()


def _edit(text, row_index, column, new_value):
    """Replace one field of one data row of a results CSV."""
    lines = text.splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[header_at].split(",")
    fields = lines[header_at + 1 + row_index].split(",")
    fields[header.index(column)] = new_value(fields[header.index(column)])
    lines[header_at + 1 + row_index] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_golden_passes_itself_bit_identically():
    for name in workloads.NAMES:
        text = _golden(name)
        adaptive = (0.01, 20000) if name == "adaptive" else None
        res = golden.check(text, text, workloads.GOLDEN_SEED, adaptive)
        rows = len(golden.parse(text)[1])
        assert (res.attempted, res.failed, res.bit_identical) == (rows, 0, rows), res.problems


def test_perturbed_w_row_is_flagged_and_counts_in_failed_frac():
    text = _golden("theta_sweep")
    # cpmg_balanced row: W 0.978 +- 0.002, so 0.05 is far beyond 5 combined SE
    bad = _edit(text, 30, "W", lambda v: repr(float(v) - 0.05))
    res = golden.check(bad, text, workloads.GOLDEN_SEED)
    assert (res.attempted, res.failed) == (52, 1)
    assert "W " in res.problems[0]

    sample = {"traced": False, "attempted": res.attempted, "failed": res.failed,
              "problems": res.problems, "wall_s": 1.0, "realizations": 20800,
              "probe_s": 0.03, "speed": 1.0,
              "setup_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 100.0, "environment": {}}
    record = run.summarize("theta_sweep", workloads.GOLDEN_SEED, False, [sample])
    assert record["failed_frac"] == 1 / 52
    assert run.report_line(record, run.metric_units())["correct"] is False


def test_deterministic_column_is_checked_to_1e9_relative():
    text = _golden("single_large")
    close = _edit(text, 0, "chi_exact_theory", lambda v: repr(float(v) * (1 + 1e-11)))
    far = _edit(text, 0, "chi_exact_theory", lambda v: repr(float(v) * (1 + 1e-7)))
    assert golden.check(close, text, workloads.GOLDEN_SEED).failed == 0
    assert golden.check(far, text, workloads.GOLDEN_SEED).failed == 1


def test_gamma_checked_only_where_w_is_resolved():
    text = _golden("theta_sweep")
    rows = golden.parse(text)[1]
    resolved = next(i for i, r in enumerate(rows)
                    if float(r["W"]) > 5 * float(r["W_stderr"]) and float(r["gamma_stderr"]) < 0.1)
    unresolved = next(i for i, r in enumerate(rows) if float(r["W"]) < 5 * float(r["W_stderr"]))
    shift = lambda v: repr(float(v) + 1.0)  # noqa: E731
    assert golden.check(_edit(text, resolved, "gamma_mean", shift), text, 2024).failed == 1
    assert golden.check(_edit(text, unresolved, "gamma_mean", shift), text, 2024).failed == 0


def test_missing_duplicate_and_wrong_seed_rows_are_flagged():
    text = _golden("theta_sweep")
    lines = text.splitlines()
    assert golden.check("\n".join(lines[:-1]), text, 2024).failed == 1
    assert golden.check(text + lines[-1] + "\n", text, 2024).failed == 1
    assert golden.check(text, text, 2025).failed == 52


def test_adaptive_row_must_stop_on_target_or_cap():
    text = _golden("adaptive")
    loose = _edit(text, 0, "W_stderr", lambda v: "0.011")
    assert golden.check(loose, text, 2024, adaptive=(0.01, 20000)).failed == 1
    capped = _edit(loose, 0, "realizations", lambda v: "20000")
    assert golden.check(capped, text, 2024, adaptive=(0.01, 20000)).failed == 0
