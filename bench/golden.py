"""Check a results CSV against the golden output of its workload.

The golden CSVs were written at the golden seed.  The check holds at any
seed, so a change of random stream passes it without editing the golden:

* configuration columns and the deterministic theory columns must match the
  golden to 1e-9 relative;
* ``W`` must lie within 5 combined standard errors of the golden ``W``;
* ``gamma_mean`` gets the same test where ``W`` is resolved from zero (more
  than 5 standard errors) in both rows;
* an adaptive row must have stopped on its target or at its cap.

A row that is missing, duplicated or fails any test counts as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DETERMINISTIC = (
    "gamma_theory", "gamma_theory_raw", "W_theory", "chi_theory", "lambda_theory",
    "gamma_ref", "chi_exact_theory", "W_exact_theory", "theta_c",
)
CONFIG_FLOATS = ("theta_a", "beta", "eta", "kappa")
CONFIG_STRINGS = ("scheme", "dt_divisor", "noise_axis")
N_SIGMA = 5.0
REL_TOL = 1e-9


@dataclass
class CheckResult:
    attempted: int
    failed: int
    bit_identical: int
    problems: list = field(default_factory=list)


def parse(text: str):
    """(header, rows, lines) of a results CSV; rows are dicts of strings."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], [], []
    header = lines[0].split(",")
    body = lines[1:]
    return header, [dict(zip(header, ln.split(","))) for ln in body], body


def _key(row):
    return row["scheme"], round(float(row["theta_a"]), 9)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _wrap(x: float) -> float:
    return -((-x + math.pi) % (2.0 * math.pi) - math.pi)


def row_problems(row, gold, seed, adaptive=None):
    """Reasons ``row`` disagrees with ``gold``; empty when it passes.

    ``adaptive`` is (target, cap) for a row of an adaptive run.
    """
    out = []
    for col in CONFIG_STRINGS:
        if row[col] != gold[col]:
            out.append(f"{col} {row[col]!r} != {gold[col]!r}")
    for col in CONFIG_FLOATS + DETERMINISTIC:
        if not _close(float(row[col]), float(gold[col])):
            out.append(f"{col} {row[col]} != golden {gold[col]}")
    if int(row["seed"]) != seed:
        out.append(f"seed {row['seed']} != {seed}")
    n = int(row["realizations"])
    if adaptive is None:
        if n != int(gold["realizations"]):
            out.append(f"realizations {n} != {gold['realizations']}")
    else:
        target, cap = adaptive
        if not (2 <= n <= cap and (n == cap or float(row["W_stderr"]) < target)):
            out.append(f"adaptive run stopped at {n} with W_stderr {row['W_stderr']}")

    w, w_se = float(row["W"]), float(row["W_stderr"])
    gw, gw_se = float(gold["W"]), float(gold["W_stderr"])
    if not abs(w - gw) <= N_SIGMA * math.hypot(w_se, gw_se):
        out.append(f"W {w} vs golden {gw} beyond {N_SIGMA:g} combined SE")
    if w > N_SIGMA * w_se and gw > N_SIGMA * gw_se:
        g, g_se = float(row["gamma_mean"]), float(row["gamma_stderr"])
        gg, gg_se = float(gold["gamma_mean"]), float(gold["gamma_stderr"])
        if not abs(_wrap(g - gg)) <= N_SIGMA * math.hypot(g_se, gg_se):
            out.append(f"gamma_mean {g} vs golden {gg} beyond {N_SIGMA:g} combined SE")
    return out


def check(text: str, golden_text: str, seed: int, adaptive=None) -> CheckResult:
    """Compare a results CSV with the golden one, row by row."""
    header, rows, lines = parse(text)
    gold_header, gold_rows, gold_lines = parse(golden_text)
    attempted = max(len(rows), len(gold_rows))
    if header != gold_header:
        return CheckResult(attempted, attempted, 0, [f"header {header} != golden"])
    by_key = {}
    failed = identical = 0
    problems = []
    for row, line in zip(rows, lines):
        try:
            by_key.setdefault(_key(row), []).append((row, line))
        except (KeyError, ValueError):
            failed += 1
            problems.append(f"unreadable row {line!r}")
    for gold, gold_line in zip(gold_rows, gold_lines):
        found = by_key.pop(_key(gold), [])
        if len(found) != 1:
            failed += 1
            problems.append(f"{_key(gold)}: {len(found)} rows, want 1")
            continue
        row, line = found[0]
        try:
            bad = row_problems(row, gold, seed, adaptive)
        except (KeyError, ValueError) as exc:
            bad = [f"unreadable row: {exc!r}"]
        if bad:
            failed += 1
            problems.append(f"{_key(gold)}: " + "; ".join(bad))
        identical += line == gold_line
    extra = sum(len(v) for v in by_key.values())
    if extra:
        problems.append(f"{extra} rows not in the golden output")
    return CheckResult(attempted, min(attempted, failed + extra), identical, problems)
