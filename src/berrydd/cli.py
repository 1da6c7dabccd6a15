"""Command-line front end: named experiments with CSV output and run manifests.

Subcommands map one-to-one onto the standard experiments:

* ``theta-sweep``  phase and coherence of the four sequences across the
  slant angle at fixed noise parameters.
* ``beta-sweep``   the same observables at fixed angle across the noise
  bandwidth beta (eta = 400*beta rule).
* ``filters``      filter-function tables F(z)/z^2 and the closed-form
  dephasing-vs-beta tables for the three standard switching patterns.
* ``single``       one ensemble from a JSON config; writes a result row
  plus a manifest that reproduces the run bit-identically.

All angles are radians; all rates are in B0-units.  Every CSV starts with
comment lines stating the units and the formula behind each theory column.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from . import __version__, analytics, ensemble
from .ensemble import ExperimentConfig, run_ensemble, sweep_beta, sweep_theta
from .noise import NoiseModel
from .schedule import KAPPA_WARN

__all__ = ["main", "RunManifest", "write_results_csv"]


_RESULT_COLUMNS = [
    "scheme", "theta_a", "theta_c", "beta", "eta", "kappa", "realizations",
    "seed", "gamma_mean", "gamma_theory", "gamma_stderr", "W", "W_theory",
    "W_stderr", "chi_theory", "lambda_theory",
    # extras beyond the canonical 16
    "gamma_theory_raw", "gamma_ref", "gamma_corrected", "gamma_sample_std",
    "w_sample_std", "chi_exact_theory", "W_exact_theory", "dt_divisor",
    "noise_axis",
]

_HEADER_NOTES = [
    "# units: angles in rad; beta = gamma3*T, eta = alpha3*gamma3*T^3 (dimensionless); kappa = B0/omega_B",
    "# gamma_theory: loop geometric phase difference, sum over segments of 2*pi*l_k*s_k*cos(theta_k),",
    "#   reduced to (-pi, pi]; gamma_theory_raw is the unreduced value",
    "# W_theory = exp(-chi_theory); chi_theory is the scheme's closed-form low-frequency dephasing exponent:",
    *(f"#   {name + ':':<15}{scheme.note}" for name, scheme in analytics.SCHEMES.items()),
    "#   (for beta > 0.1 the exact exponential-kernel form replaces the low-frequency limit)",
    "# chi_exact_theory: exact Gaussian linear-response exponent (piecewise-weight double integral",
    "#   of the exponential correlation kernel); W_exact_theory = exp(-chi_exact_theory)",
    "# lambda_theory: depolarization exponent alpha3*T*sin^2(t)*gamma3/(gamma3^2 + B0^2)",
    "# gamma_ref: zero-noise reference phase on the same grid; gamma_corrected subtracts the",
    "#   scheme-constant offset (gamma_ref - gamma_theory) from gamma_mean",
    "# gamma_stderr/W_stderr: bootstrap errors of the mean; *_sample_std: per-realization spread",
]

# the first z of the filter table: F(z)/z^2 is 0/0 at z = 0
_Z_MIN = 1e-6

# heads the CSV of an adaptive run
_ADAPTIVE_NOTES = [
    f"# adaptive stop: realizations is the first multiple n >= {2 * ensemble._BLOCK} of "
    f"{ensemble._BLOCK} at which the",
    "#   delta-method SE of W, 2*std(Re(z*exp(-i*gamma_n)))/sqrt(n) over the first n coherences,",
    "#   and the bootstrap W_stderr are both below adaptive_target; else the realizations cap",
]


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _result_row(res: ensemble.EnsembleResult) -> list:
    cfg = res.config
    pred = res.prediction
    params = cfg.params()
    return [
        cfg.scheme,
        cfg.theta_a,
        params.theta_c if params.theta_c is not None else float("nan"),
        cfg.beta,
        cfg.eta,
        cfg.kappa,
        res.realizations_used,
        cfg.master_seed,
        res.gamma_mean,
        float(ensemble.wrap_angle(pred.gamma_expected)),
        res.gamma_stderr,
        res.w,
        pred.w,
        res.w_stderr,
        pred.chi,
        pred.lam,
        pred.gamma_expected,
        res.gamma_ref,
        res.gamma_corrected,
        res.gamma_sample_std,
        res.w_sample_std,
        res.chi_exact,
        math.exp(-res.chi_exact),
        cfg.dt_divisor,
        cfg.noise_axis,
    ]


def write_results_csv(results, path, notes=()) -> None:
    """Write one row per ensemble with units/provenance header comments."""
    lines = list(_HEADER_NOTES)
    if any(res.config.adaptive for res in results):
        lines += _ADAPTIVE_NOTES
    lines += [f"# {n}" for n in notes]
    lines.append(",".join(_RESULT_COLUMNS))
    for res in results:
        lines.append(",".join(_fmt(x) for x in _result_row(res)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_view_csv(results, path, column: str, schemes) -> None:
    """Wide view: one row per theta/beta, one column per scheme plus theory."""
    by_scheme = {}
    for res in results:
        by_scheme.setdefault(res.config.scheme, []).append(res)
    xs = [r.config.theta_a for r in by_scheme[schemes[0]]] if column == "gamma" else None
    lines = list(_HEADER_NOTES)
    if column == "gamma":
        hdr = ["theta_a"]
        for s in schemes:
            hdr += [f"gamma_{s}", f"gamma_stderr_{s}"]
        hdr += ["gamma_theory_loop", "gamma_theory_balanced"]
        lines.append(",".join(hdr))
        for i, x in enumerate(xs):
            row = [x]
            for s in schemes:
                row += [by_scheme[s][i].gamma_mean, by_scheme[s][i].gamma_stderr]
            row.append(float(ensemble.wrap_angle(by_scheme["fid"][i].prediction.gamma_expected)))
            bal = next((by_scheme[s][i] for s in schemes
                        if analytics.SCHEMES[s].uses_theta_c), None)
            row.append(
                float(ensemble.wrap_angle(bal.prediction.gamma_expected))
                if bal else float("nan")
            )
            lines.append(",".join(_fmt(v) for v in row))
    else:
        key = (lambda r: r.config.theta_a) if column == "W_vs_theta" else (
            lambda r: r.config.beta)
        xname = "theta_a" if column == "W_vs_theta" else "beta"
        xs = [key(r) for r in by_scheme[schemes[0]]]
        hdr = [xname]
        for s in schemes:
            hdr += [f"W_{s}", f"W_stderr_{s}", f"W_theory_{s}"]
        lines.append(",".join(hdr))
        for i, x in enumerate(xs):
            row = [x]
            for s in schemes:
                r = by_scheme[s][i]
                row += [r.w, r.w_stderr, r.prediction.w]
            lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class RunManifest:
    """Resolved config + provenance; ``single --manifest`` reruns a ``single``
    manifest and reproduces its CSV."""

    tool_version: str
    created_utc: str
    command: str
    config: dict
    outputs: list
    notes: list

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest; a missing or an unknown key raises by name."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"manifest {path} must hold a JSON object, "
                             f"got {type(data).__name__}")
        keys = {f.name for f in fields(cls)}
        errors = ([f"missing key '{k}'" for k in sorted(keys - data.keys())]
                  + [f"unknown key '{k}'" for k in sorted(data.keys() - keys)])
        if errors:
            raise ValueError(f"invalid manifest {path}: " + "; ".join(errors))
        return cls(**data)


def _manifest_for(command, config: ExperimentConfig, outputs, notes):
    return RunManifest(
        tool_version=__version__,
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        command=command,
        config=asdict(config),
        outputs=[str(p) for p in outputs],
        notes=list(notes),
    )


# -- config validation ---------------------------------------------------------

# the config fields and their types, read from ExperimentConfig; the fields
# without a default are required
_CONFIG_FIELDS = get_type_hints(ExperimentConfig)
_REQUIRED = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config; unknown or missing fields raise by name."""
    if not isinstance(data, dict):
        raise ValueError("invalid config: expected a JSON object of fields, "
                         f"got {type(data).__name__}")
    errors = []
    for name in _REQUIRED:
        if name not in data:
            errors.append(f"missing required field '{name}'")
    kwargs = {}
    for name, value in data.items():
        if name == "b0_hz":  # physical-unit annotation, not used internally
            continue
        if name == "fid_windings":  # older manifests record the fixed winding count
            if value != analytics.FID_WINDINGS:
                errors.append(f"field 'fid_windings' must be {analytics.FID_WINDINGS}, "
                              f"got {value!r}")
            continue
        if name not in _CONFIG_FIELDS:
            errors.append(f"unknown field '{name}'")
            continue
        want = _CONFIG_FIELDS[name]
        # a number stands for an int or a float (an int only when integral,
        # as int() would truncate it silently); a bool or a string only for
        # its own type
        number = (want in (int, float) and isinstance(value, (int, float))
                  and not isinstance(value, bool))
        if not (type(value) is want or number) or (
                want is int and not float(value).is_integer()):
            errors.append(f"field '{name}' must be {want.__name__}, got {value!r}")
            continue
        kwargs[name] = want(value)
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"invalid config: {exc}") from exc


def _check_config_warnings(cfg: ExperimentConfig, schemes=None) -> list:
    """The warnings of a run of ``cfg``, or of a sweep of it over ``schemes``.

    Each is printed to stderr and returned, for the CSV header and the
    manifest notes.
    """
    notes = []
    if cfg.kappa < KAPPA_WARN:
        notes.append(
            f"kappa = {cfg.kappa} < {KAPPA_WARN}: barely adiabatic; closed forms degrade"
        )
    if cfg.noise_axis == "transverse" and "mirror" in (schemes or (cfg.scheme,)):
        notes.append(
            "mirror sequence does not suppress transverse geometric dephasing "
            "(its radial noise weights share one sign across the cones)"
        )
    for n in notes:
        print(f"warning: {n}", file=sys.stderr)
    return notes


# -- subcommands -----------------------------------------------------------------


def _cmd_theta_sweep(args) -> int:
    grid = np.linspace(math.pi / 12, 11 * math.pi / 12, args.theta_points)
    if args.theta_grid is not None:
        grid = args.theta_grid
    base = ExperimentConfig(
        scheme=ensemble.THETA_SWEEP_SCHEMES[0], theta_a=float(grid[0]), beta=args.beta,
        eta=args.eta, kappa=args.kappa, realizations=args.realizations,
        master_seed=args.seed, dt_divisor=args.dt_divisor,
        noise_axis=args.noise_axis, workers=args.workers,
    )
    notes = _check_config_warnings(base, ensemble.THETA_SWEEP_SCHEMES)
    results = sweep_theta(base, grid)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "theta_sweep_results.csv", out / "theta_sweep_phase.csv",
             out / "theta_sweep_coherence.csv"]
    write_results_csv(results, paths[0], notes=notes)
    _write_view_csv(results, paths[1], "gamma", ensemble.THETA_SWEEP_SCHEMES)
    _write_view_csv(results, paths[2], "W_vs_theta", ensemble.THETA_SWEEP_SCHEMES)
    _manifest_for("theta-sweep", base, paths,
                  notes + [f"theta_grid={list(map(float, grid))}"]).write(
        out / "theta_sweep_manifest.json")
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_beta_sweep(args) -> int:
    grid = np.geomspace(args.beta_min, args.beta_max, args.beta_points)
    if args.beta_grid is not None:
        grid = args.beta_grid
    base = ExperimentConfig(
        scheme=ensemble.THETA_SWEEP_SCHEMES[0], theta_a=args.theta, beta=float(grid[0]),
        eta=400.0 * float(grid[0]), kappa=args.kappa,
        realizations=args.realizations, master_seed=args.seed,
        dt_divisor=args.dt_divisor, noise_axis=args.noise_axis,
        workers=args.workers,
    )
    notes = [f"eta scaling rule: eta = {args.eta_per_beta}*beta (fixed noise power alpha3)",
             *_check_config_warnings(base, ensemble.THETA_SWEEP_SCHEMES)]
    results = sweep_beta(base, grid, eta_per_beta=args.eta_per_beta)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "beta_sweep_results.csv", out / "beta_sweep_coherence.csv"]
    write_results_csv(results, paths[0], notes=notes)
    _write_view_csv(results, paths[1], "W_vs_beta", ensemble.THETA_SWEEP_SCHEMES)
    _manifest_for("beta-sweep", base, paths,
                  notes + [f"beta_grid={list(map(float, grid))}"]).write(
        out / "beta_sweep_manifest.json")
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_filters(args) -> int:
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    zs = np.linspace(_Z_MIN, args.z_max, args.z_points)
    names = tuple(analytics.PATTERNS)
    lines = [
        "# filter-function tables: F(z)/z^2 per switching pattern, z = omega*T",
        "# fid: 2 sin^2(z/2); se: 8 sin^4(z/4); cpmg2: 32 sin^4(z/8) sin^2(z/4)",
        ",".join(["z", *names]),
    ]
    for z in zs:
        vals = [analytics.filter_function(s, z) / z**2 for s in names]
        lines.append(",".join(_fmt(float(v)) for v in [z, *vals]))
    fpath = out / "filter_functions.csv"
    fpath.write_text("\n".join(lines) + "\n")

    betas = np.geomspace(args.chi_beta_min, args.chi_beta_max, args.chi_beta_points)
    lines = [
        "# closed-form dephasing vs beta in units of alpha*T^2/2 (exact exponential kernels),",
        "# i.e. 2*K(beta)/beta^2 with K the pattern kernel; the *_lowfreq columns are the",
        "# leading beta->0 factors {1, beta/6, beta/24}",
        ",".join(["beta", *names, *(f"{s}_lowfreq" for s in names)]),
    ]
    for b in betas:
        model = NoiseModel(alpha=1.0, gamma=float(b))
        row = [float(b)]
        for s in names:
            # chi_closed = K(beta)/beta^2 here; normalize by alpha*T^2/2 = 1/2
            row.append(2.0 * analytics.chi_closed(s, model, 1.0))
        row += [1.0, float(b) / 6.0, float(b) / 24.0]
        lines.append(",".join(_fmt(v) for v in row))
    cpath = out / "chi_vs_beta.csv"
    cpath.write_text("\n".join(lines) + "\n")
    print(f"wrote {fpath}, {cpath}")
    return 0


def _cmd_single(args) -> int:
    notes = None
    if args.manifest:
        man = RunManifest.load(args.manifest)
        if man.command != "single":
            raise ValueError(f"manifest {args.manifest} records a '{man.command}' run; "
                             "single --manifest reruns only 'single' manifests")
        data, notes = man.config, list(man.notes)
        if man.tool_version != __version__:
            note = (f"manifest written by berrydd {man.tool_version}, rerun with "
                    f"{__version__}: results may differ")
            print(f"warning: {note}", file=sys.stderr)
            notes.append(note)
    elif args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    else:
        data = {
            "scheme": args.scheme, "theta_a": args.theta,
            "beta": args.beta, "eta": args.eta, "kappa": args.kappa,
            "realizations": args.realizations, "master_seed": args.seed,
            "dt_divisor": args.dt_divisor, "noise_axis": args.noise_axis,
            "workers": args.workers,
        }
        data = {k: v for k, v in data.items() if v is not None}
    try:
        cfg = config_from_dict(data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if notes is None:  # a manifest already carries its run's warnings
        notes = _check_config_warnings(cfg)
    res = run_ensemble(cfg)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "single_result.csv"
    write_results_csv([res], csv_path, notes=notes)
    _manifest_for("single", cfg, [csv_path], notes).write(out / "single_manifest.json")
    print(f"wrote {csv_path}")
    return 0


def main(argv=None) -> int:
    import pathlib

    parser = argparse.ArgumentParser(
        prog="berrydd",
        description="Driven-qubit dephasing experiments under OU noise",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text):
        """argparse type of a grid size: an integer >= 1."""
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
        return n

    def positive(text):
        """argparse type of a geometric grid's end: a finite number > 0."""
        x = float(text)
        if not 0 < x < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {x}")
        return x

    def z_end(text):
        """argparse type of the filter table's last z: finite and past its first."""
        x = float(text)
        if not _Z_MIN < x < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and > {_Z_MIN:g}, got {x}")
        return x

    def grid(text, item=float):
        """argparse type of a comma-separated grid of numbers."""
        return np.array([item(x) for x in text.split(",")])

    def positive_grid(text):
        """argparse type of a comma-separated grid of finite numbers > 0."""
        return grid(text, positive)

    def add_common(p):
        p.add_argument("--kappa", type=float, default=12.0)
        p.add_argument("--realizations", type=int, default=400)
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--dt-divisor", type=int, default=10)
        p.add_argument("--noise-axis", choices=["longitudinal", "transverse"],
                       default="longitudinal")
        p.add_argument("--workers", type=int, default=1,
                       help="process-pool size (at most one process per CPU); results "
                            "are bit-identical for any value; the pool pays only when "
                            "a run has more than one compute batch, e.g. at 20000 "
                            "realizations")
        p.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))

    p = sub.add_parser("theta-sweep", help="phase/coherence across the slant angle")
    p.add_argument("--beta", type=float, default=0.001)
    p.add_argument("--eta", type=float, default=0.4)
    p.add_argument("--theta-points", type=count, default=13)
    p.add_argument("--theta-grid", type=grid,
                   help="comma-separated angles overriding the default grid")
    add_common(p)
    p.set_defaults(func=_cmd_theta_sweep)

    p = sub.add_parser("beta-sweep", help="phase/coherence across the noise bandwidth")
    p.add_argument("--theta", type=float, default=5 * math.pi / 12)
    p.add_argument("--beta-min", type=positive, default=0.005)
    p.add_argument("--beta-max", type=positive, default=5.0)
    p.add_argument("--beta-points", type=count, default=9)
    p.add_argument("--beta-grid", type=positive_grid)
    p.add_argument("--eta-per-beta", type=float, default=400.0)
    add_common(p)
    p.set_defaults(func=_cmd_beta_sweep)

    p = sub.add_parser("filters", help="filter-function and dephasing tables")
    p.add_argument("--z-max", type=z_end, default=8 * math.pi)
    p.add_argument("--z-points", type=count, default=400)
    p.add_argument("--chi-beta-min", type=positive, default=1e-3)
    p.add_argument("--chi-beta-max", type=positive, default=10.0)
    p.add_argument("--chi-beta-points", type=count, default=40)
    p.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))
    p.set_defaults(func=_cmd_filters)

    p = sub.add_parser("single",
                       help="one ensemble from a JSON config or direct flags")
    p.add_argument("--config", type=str, help="path to the JSON config")
    p.add_argument("--manifest", type=str, default="",
                   help="rerun a previously written manifest instead")
    p.add_argument("--scheme", type=str, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_single)

    args = parser.parse_args(argv)
    if args.command == "single" and not (args.config or args.manifest
                                         or args.scheme is not None):
        print("error: single needs --config, --manifest or --scheme/--theta/"
              "--beta/--eta flags", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
