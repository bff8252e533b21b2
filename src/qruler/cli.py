"""Configuration-driven command line front end.

Subcommands: validate-ruler, wk, fisher, scenario, optimize, acceptance.
Parameters come from flags and/or a single JSON config file keyed by
flag name (flags win).  A config value is a number or a string and goes
through the same argparse type and choices as the flag it sets, so a bad
value fails the same way on either route.

The scenario flags of ``fisher`` and ``scenario`` come from the spec
classes in ``scenarios.SCENARIOS``: each positional spec field is one
flag, named as the field without underscores (``dx_s`` -> ``--dxs``);
fields without a default are required, a flag the chosen scenario does
not read is rejected, and keyword-only grid sizes keep their defaults.
``wk`` runs every probe through the same pipeline: ruler on the probe's
grid, coherence function, outcome statistics.

Each command returns its artifacts by file name; ``main`` alone writes
the ones ``--format`` selects, plus a manifest.json carrying the merged
config and its digest.  Outputs are byte-identical across repeated runs.

Exit codes: 0 success, 2 config error, 3 domain error, 4 acceptance
failure (1 for I/O failures).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .acceptance import CRITERIA, run_all
from .budget import OBJECTIVES, optimize_linear, optimize_nonlinear, sweep_budget
from .coherence import (
    coherence_function,
    coherence_time,
    signal_uncertainty,
    statistics_from_coherence,
    wk_product,
)
from .errors import ConfigError, DegenerateDistribution, DomainError
from .fisher import FISHER_FLOOR
from .grids import GeneratorGrid, grid_for_gaussian
from .output import write_csv, write_json, write_manifest
from .ruler import make_gaussian_ruler, validate_ruler
from .scenarios import SCENARIOS
from .states import GaussianProbeSpec, PureProbe, SGProbeSpec, make_gaussian_probe, make_sg_probe

OUTDIR_ENV = "QRULER_OUTDIR"
PROBE_KINDS = {"gaussian": {"sigma", "center", "kc"}, "sg": {"xi", "nmax"}}
RULER_KINDS = {"gaussian": {"dphi"}, "ideal": set()}


def _flags(spec: type) -> dict[str, dataclasses.Field]:
    """The CLI flags of a scenario spec, its positional fields without underscores."""
    return {f.name.replace("_", ""): f for f in dataclasses.fields(spec) if not f.kw_only}


SCENARIO_FLAGS = tuple(dict.fromkeys(flag for spec in SCENARIOS.values() for flag in _flags(spec)))


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or config value as a ConfigError (exit 2)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {text!r}")
    return value


def _number(text: str, what: str) -> float:
    try:
        return _finite_float(text)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"{exc} in {what!r}") from exc


def _parse_minispec(text: str, allowed: dict[str, set[str]]) -> tuple[str, dict[str, float]]:
    """Parse 'kind:key=val,key=val' strings such as 'gaussian:sigma=1'."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in allowed:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {sorted(allowed)}")
    params: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep or key not in allowed[kind]:
                raise ConfigError(f"bad parameter {item!r} for {kind!r}")
            params[key] = _number(val, item)
    return kind, params


def _count(params: dict[str, float], key: str, default: int | None = None) -> int | None:
    """A minispec value that counts points: an integer, given as any number."""
    value = params.get(key, default)
    if value is not None and value != int(value):
        raise ConfigError(f"{key} must be an integer, got {value}")
    return None if value is None else int(value)


def _build_grid(spec: str | None, center: float = 0.0, sigma: float = 1.0) -> GeneratorGrid:
    """The --grid spec, or else a 512-point grid sized for a Gaussian probe."""
    if spec is None:
        return grid_for_gaussian(center, sigma, 512)
    _, params = _parse_minispec("grid:" + spec, {"grid": {"gmin", "gmax", "n"}})
    try:
        return GeneratorGrid(params["gmin"], params["gmax"], _count(params, "n", 512))
    except KeyError as exc:
        raise ConfigError(f"grid spec needs gmin and gmax: {spec!r}") from exc


def _build_probe(kind: str, params: dict, grid_spec: str | None) -> PureProbe:
    """A Gaussian probe on the --grid; an sg probe on its own integer grid."""
    if kind == "gaussian":
        center, sigma = params.get("center", 0.0), params.get("sigma", 1.0)
        grid = _build_grid(grid_spec, center, sigma)
        spec = GaussianProbeSpec(center, sigma, conjugate_center=params.get("kc", 0.0))
        return make_gaussian_probe(spec, grid)
    if grid_spec is not None:
        raise ConfigError("the sg probe sits on its own integer grid; --grid does not apply")
    if "xi" not in params:
        raise ConfigError("the sg probe needs xi, e.g. sg:xi=0.9")
    return make_sg_probe(SGProbeSpec(xi=params["xi"], n_max=_count(params, "nmax")))


def _build_ruler(kind: str, params: dict, grid: GeneratorGrid):
    return make_gaussian_ruler(params.get("dphi", 0.5 if kind == "gaussian" else 0.0), grid)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns ({file name: payload}, passed).
# A .json payload is a dict, a .csv payload a (header, columns) pair.
# ---------------------------------------------------------------------------


def _cmd_validate_ruler(args):
    kind, params = _parse_minispec(args.ruler, RULER_KINDS)
    grid = _build_grid(args.grid)
    report = validate_ruler(_build_ruler(kind, params, grid))
    status = "all-pass" if report.all_pass else "violations detected"
    print(f"ruler validation: {status}")
    return {
        "ruler_report.json": {
            "ruler": args.ruler,
            "grid": {"g_min": grid.g_min, "g_max": grid.g_max, "n_points": grid.n_points},
            "all_pass": report.all_pass,
            **dataclasses.asdict(report),
        }
    }, True


def _cmd_wk(args):
    probe_kind, probe_params = _parse_minispec(args.probe, PROBE_KINDS)
    ruler_kind, ruler_params = _parse_minispec(args.ruler, RULER_KINDS)
    probe = _build_probe(probe_kind, probe_params, args.grid)
    gamma = coherence_function(probe, _build_ruler(ruler_kind, ruler_params, probe.grid))
    dist = statistics_from_coherence(gamma)
    tau_c = coherence_time(gamma)
    dlam = signal_uncertainty(dist)
    try:
        d2lam = dlam**2
    except OverflowError:
        raise DegenerateDistribution(f"delta_lambda={dlam!r}: its square leaves the float range") from None
    print(f"wk: tau_c={tau_c:.9g} delta_lambda={dlam:.9g} product={tau_c * dlam:.9g}")
    tau, vals = gamma.all_lags()
    return {
        "probe_state.csv": (
            ["g", "re_psi", "im_psi"],
            [probe.grid.points, probe.amplitudes.real, probe.amplitudes.imag],
        ),
        "coherence.csv": (
            ["tau", "re_gamma", "im_gamma"],
            [tau, vals.real, vals.imag],
        ),
        "statistics.csv": (["mu", "p"], [dist.mu_grid.points, dist.density]),
        "summary.json": {
            "probe": args.probe,
            "ruler": args.ruler,
            "gamma0": gamma.gamma0,
            "tau_c": tau_c,
            "delta_lambda": dlam,
            "delta2_lambda": d2lam,
            "wk_product": tau_c * dlam,
        },
    }, True


def _scenario_run(args, lambda_pad: float = 0.0):
    """Run the --scenario from its flags; return the run and the flags it read.

    ``lambda_pad`` widens a spec that sizes its outcome grids for a
    largest |lambda| (the nonlinear scenario) when the default is smaller.
    """
    reads = _flags(SCENARIOS[args.scenario])
    stray = [f for f in SCENARIO_FLAGS if f not in reads and getattr(args, f) is not None]
    if stray:
        raise ConfigError(f"scenario {args.scenario!r} does not read --" + ", --".join(stray))
    params = {f: getattr(args, f) for f in reads if getattr(args, f) is not None}
    missing = [f for f in reads if reads[f].default is dataclasses.MISSING and f not in params]
    if missing:
        raise ConfigError(f"scenario {args.scenario!r} needs --" + ", --".join(missing))
    spec = SCENARIOS[args.scenario](**{reads[f].name: v for f, v in params.items()})
    if lambda_pad > getattr(spec, "lambda_pad", lambda_pad):
        spec = dataclasses.replace(spec, lambda_pad=lambda_pad)
    return spec.run(), params


def _cmd_fisher(args):
    if args.step is not None and not args.step > 0:
        raise ConfigError(f"--step must be > 0, got {args.step}")
    # exact by default; a --step stencil reaches lambda = +/- 2*step
    run, params = _scenario_run(args, 0.0 if args.step is None else 2.0 * args.step)
    numerical = run.fisher(step=args.step)
    closed = run.closed_form
    payload = {
        "scenario": run.scenario,
        "params": params,
        "step": args.step,
        "numerical": {"fisher": numerical.fisher, "crb": numerical.crb},
        "qfi": run.qfi,
        "closed_form": {"fisher": closed.fisher, "crb": closed.crb},
        "agreement_rel": abs(numerical.fisher / closed.fisher - 1.0) if closed.fisher > FISHER_FLOOR else None,
    }
    print(f"fisher[{run.scenario}]: numerical={numerical.fisher:.9g} closed={closed.fisher:.9g}")
    return {"fisher.json": payload}, True


def _parse_lambdas(raw: str | None) -> list[float]:
    if raw is None:
        return [0.0]
    lambdas = [_number(tok, f"--lambdas {raw}") for tok in raw.split(",") if tok.strip()]
    if not lambdas:
        raise ConfigError(f"--lambdas {raw!r} gives no signal value")
    return lambdas


def _cmd_scenario(args):
    lambdas = _parse_lambdas(args.lambdas)
    run, params = _scenario_run(args, 1.05 * max((abs(v) for v in lambdas), default=0.0))
    artifacts, records, members = {}, [], {}
    for idx, lam in enumerate(lambdas):
        dist = members[lam] = run.family(lam)
        name = f"distribution_{idx:03d}.csv"
        record = {"lambda": lam, "file": name, "mass": dist.total_mass()}
        if dist.k_grid is None:
            artifacts[name] = (["mu", "p"], [dist.mu_grid.points, dist.density])
            record["mean"] = dist.mean()
            record["variance"] = dist.variance()
            record["delta2_lambda"] = signal_uncertainty(dist) ** 2
        else:
            mm, kk = np.meshgrid(dist.mu_grid.points, dist.k_grid.points, indexing="ij")
            artifacts[name] = (["m", "k", "p"], [mm.ravel(), kk.ravel(), dist.density.ravel()])
        records.append(record)
    summary = {"scenario": run.scenario, "params": params, "distributions": records}
    summary["closed_form"] = {"fisher": run.closed_form.fisher, "crb": run.closed_form.crb}
    if run.gamma is not None:
        summary["tau_c"] = coherence_time(run.gamma)
        summary["wk_product"] = wk_product(run.gamma, members.get(0.0) or run.family(0.0))
    artifacts["summary.json"] = summary
    print(f"scenario[{run.scenario}]: wrote {len(records)} distribution(s)")
    return artifacts, True


def _cmd_optimize(args):
    if args.objective == "linear":
        opt = optimize_linear(args.budget)
        print(f"optimize[linear]: split={opt.split} delta2_lambda={opt.delta2_lambda:.9g}")
    else:
        opt = optimize_nonlinear(args.budget)
        print(f"optimize[nonlinear]: split={opt.split} ratio_to_qfi={opt.ratio_to_qfi}")
    artifacts = {"optimum.json": {"objective": args.objective, **dataclasses.asdict(opt)}}
    if args.sweep_samples is not None:
        try:
            sweep = sweep_budget(args.budget, args.objective, args.sweep_samples)
        except ValueError as exc:
            raise ConfigError(f"--sweep-samples: {exc}") from exc
        artifacts["sweep.csv"] = (["split", "value"], [sweep.splits, sweep.values])
    return artifacts, True


def _cmd_acceptance(args):
    if args.only is None:
        results = run_all()
    else:
        numbered = dict(enumerate(CRITERIA, start=1))
        if args.only not in numbered:
            raise ConfigError(f"no acceptance criterion numbered {args.only}")
        results = [numbered[args.only]()]
    for res in results:
        print(res.line())
    all_pass = all(r.passed for r in results)
    criteria = [dataclasses.asdict(r) for r in results]
    return {"acceptance.json": {"all_pass": all_pass, "criteria": criteria}}, all_pass


COMMANDS = {
    "validate-ruler": _cmd_validate_ruler,
    "wk": _cmd_wk,
    "fisher": _cmd_fisher,
    "scenario": _cmd_scenario,
    "optimize": _cmd_optimize,
    "acceptance": _cmd_acceptance,
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with parameter defaults")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--format", choices=("csv", "json", "both"))


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", choices=tuple(SCENARIOS), required=True)
    for flag in SCENARIO_FLAGS:
        sub.add_argument(f"--{flag}", type=_finite_float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built on first use and shared: callers only parse with it."""
    parser = _Parser(
        prog="qruler",
        description="numerical lab for shift-invariant ruler measurement models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate-ruler", help="legitimacy checks for a ruler seed")
    p.add_argument("--ruler", required=True, help="e.g. gaussian:dphi=1 or ideal")
    p.add_argument("--grid", help="e.g. gmin=-8,gmax=8,n=512")
    _add_common(p)

    p = subs.add_parser("wk", help="coherence function and outcome statistics")
    p.add_argument(
        "--probe", required=True, help="gaussian:sigma=1[,center=..,kc=..] or sg:xi=0.9[,nmax=..]"
    )
    p.add_argument("--ruler", required=True, help="gaussian:dphi=0.5 or ideal")
    p.add_argument("--grid", help="gaussian probes only")
    _add_common(p)

    p = subs.add_parser("fisher", help="numerical and closed-form Fisher information")
    _add_scenario_flags(p)
    p.add_argument("--step", type=_finite_float, help="finite-difference step (default: exact derivative)")
    _add_common(p)

    p = subs.add_parser("scenario", help="emit outcome distributions for signal values")
    _add_scenario_flags(p)
    p.add_argument("--lambdas", help="comma-separated signal values")
    _add_common(p)

    p = subs.add_parser("optimize", help="coherence-budget optimization")
    p.add_argument("--objective", choices=tuple(OBJECTIVES), required=True)
    p.add_argument("--budget", type=_finite_float, required=True)
    p.add_argument("--sweep-samples", type=int, dest="sweep_samples")
    _add_common(p)

    p = subs.add_parser("acceptance", help="run the acceptance-criteria suite")
    p.add_argument("--only", type=int, help="run a single criterion")
    _add_common(p)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv with the --config file's values spliced in ahead of the flags.

    Each config entry becomes ``--key=value`` right after the command, so
    argparse types and checks it like the flag, and a flag given on the
    command line, coming later, wins.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = _Parser(prog="qruler", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    raw = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    tokens = []
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigError(f"config key {key!r} must be a number or a string, got {value!r}")
        tokens.append(f"--{key.replace('_', '-')}={value}")
    args = build_parser().parse_args(argv[:1] + tokens + argv[1:])
    for key in raw:
        if key.replace("-", "_") not in vars(args) or key in ("command", "config"):
            raise ConfigError(f"unknown config key {key!r} for {args.command!r}")
    return args


def _write(path: str, payload) -> str:
    if path.endswith(".json"):
        write_json(path, payload)
    else:
        write_csv(path, *payload)
    return path


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        config = {k: v for k, v in vars(args).items() if k != "config" and v is not None}
        outdir = args.out or os.environ.get(OUTDIR_ENV) or "qruler_out"
        fmt = args.format or "both"
        os.makedirs(outdir, exist_ok=True)
        artifacts, passed = COMMANDS[args.command](args)
        written = [
            _write(os.path.join(outdir, name), payload)
            for name, payload in artifacts.items()
            if fmt in ("both", name.rpartition(".")[2])
        ]
        write_manifest(outdir, args.command, config, written)
        return 0 if passed else 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
