"""Configuration-driven command line front end.

Subcommands: validate-ruler, wk, fisher, scenario, optimize, acceptance.
Parameters come from flags and/or a single JSON config file (flags win).
Every run writes its artifacts plus a manifest.json carrying the merged
config and its digest; outputs are byte-identical across repeated runs.

Exit codes: 0 success, 2 config error, 3 domain error, 4 acceptance
failure (1 for I/O failures).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .acceptance import CRITERIA, run_all
from .budget import optimize_linear, optimize_nonlinear, sweep_budget
from .coherence import (
    coherence_function,
    coherence_time,
    signal_uncertainty,
    statistics_from_coherence,
    wk_product,
)
from .errors import ConfigError, DomainError
from .fisher import fisher_from_family
from .grids import GeneratorGrid, GeneratorKind, grid_for_gaussian
from .output import write_csv, write_json, write_manifest
from .ruler import make_gaussian_ruler, make_ideal_ruler, validate_ruler
from .scenarios import (
    CoherentSqueezedScenario,
    LinearScenario,
    NonlinearScenario,
    PhaseGaussianScenario,
    SGScenario,
    run_linear,
    run_nonlinear,
    run_phase_coherent_squeezed,
    run_phase_gaussian,
    run_phase_sg,
)
from .states import GaussianProbeSpec, SGProbeSpec, make_gaussian_probe, make_sg_probe

OUTDIR_ENV = "QRULER_OUTDIR"
SCENARIO_KINDS = ("linear", "phase", "sg", "nonlinear", "phase-cs")


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
            try:
                params[key] = _finite(float(val), item)
            except ValueError as exc:
                raise ConfigError(f"non-numeric value in {item!r}") from exc
    return kind, params


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value in {what!r}")
    return value


def _build_grid(spec: str | None, probe_kind: str, probe_params: dict) -> GeneratorGrid:
    if spec is not None:
        _, params = _parse_minispec("grid:" + spec, {"grid": {"gmin", "gmax", "n"}})
        try:
            return GeneratorGrid(
                params["gmin"], params["gmax"], int(params.get("n", 512))
            )
        except KeyError as exc:
            raise ConfigError(f"grid spec needs gmin and gmax: {spec!r}") from exc
    if probe_kind == "gaussian":
        sigma = probe_params.get("sigma", 1.0)
        center = probe_params.get("center", 0.0)
        return grid_for_gaussian(center, sigma, 512)
    raise ConfigError("a --grid spec is required for this probe")


def _build_probe(kind: str, params: dict, grid: GeneratorGrid | None):
    if kind == "gaussian":
        spec = GaussianProbeSpec(
            center=params.get("center", 0.0),
            sigma=params.get("sigma", 1.0),
            conjugate_center=params.get("kc", 0.0),
        )
        return make_gaussian_probe(spec, grid)
    nmax = params.get("nmax")
    return make_sg_probe(SGProbeSpec(xi=params["xi"], n_max=None if nmax is None else int(nmax)))


def _build_ruler(kind: str, params: dict, grid: GeneratorGrid):
    if kind == "ideal":
        return make_ideal_ruler(grid)
    return make_gaussian_ruler(params.get("dphi", 0.5), grid)


PROBE_KINDS = {"gaussian": {"sigma", "center", "kc"}, "sg": {"xi", "nmax"}}
RULER_KINDS = {"gaussian": {"dphi"}, "ideal": set()}


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the list of files written
# ---------------------------------------------------------------------------


def _cmd_validate_ruler(args, outdir: str, fmt: str) -> list[str]:
    kind, params = _parse_minispec(args.ruler, RULER_KINDS)
    grid = _build_grid(args.grid, "gaussian", {"sigma": 1.0, "center": 0.0})
    report = validate_ruler(_build_ruler(kind, params, grid))
    files = []
    if fmt in ("json", "both"):
        path = os.path.join(outdir, "ruler_report.json")
        write_json(
            path,
            {
                "ruler": args.ruler,
                "grid": {"g_min": grid.g_min, "g_max": grid.g_max, "n_points": grid.n_points},
                "all_pass": report.all_pass,
                **dataclasses.asdict(report),
            },
        )
        files.append(path)
    status = "all-pass" if report.all_pass else "violations detected"
    print(f"ruler validation: {status}")
    return files


def _cmd_wk(args, outdir: str, fmt: str) -> list[str]:
    probe_kind, probe_params = _parse_minispec(args.probe, PROBE_KINDS)
    ruler_kind, ruler_params = _parse_minispec(args.ruler, RULER_KINDS)
    if probe_kind == "sg":
        if ruler_kind != "ideal":
            raise ConfigError("the sg probe supports only the ideal phase ruler")
        run = run_phase_sg(SGScenario(xi=probe_params["xi"]))
        probe, gamma = run.probe, run.gamma
        dist = run.family(0.0)
    else:
        grid = _build_grid(args.grid, probe_kind, probe_params)
        probe = _build_probe(probe_kind, probe_params, grid)
        ruler = _build_ruler(ruler_kind, ruler_params, grid)
        gamma = coherence_function(probe, ruler)
        dist = statistics_from_coherence(gamma)
    tau_c = coherence_time(gamma)
    dlam = signal_uncertainty(dist)
    files = []
    if fmt in ("csv", "both"):
        state = os.path.join(outdir, "probe_state.csv")
        write_csv(
            state,
            ["g", "re_psi", "im_psi"],
            [probe.grid.points, probe.amplitudes.real, probe.amplitudes.imag],
        )
        gam = os.path.join(outdir, "coherence.csv")
        write_csv(
            gam,
            ["tau", "re_gamma", "im_gamma"],
            [gamma.tau_grid, gamma.values.real, gamma.values.imag],
        )
        stats = os.path.join(outdir, "statistics.csv")
        write_csv(stats, ["mu", "p"], [dist.mu_grid, dist.density])
        files += [state, gam, stats]
    if fmt in ("json", "both"):
        summary = os.path.join(outdir, "summary.json")
        write_json(
            summary,
            {
                "probe": args.probe,
                "ruler": args.ruler,
                "gamma0": gamma.gamma0,
                "tau_c": tau_c,
                "delta_lambda": dlam,
                "delta2_lambda": dlam**2,
                "wk_product": tau_c * dlam,
            },
        )
        files.append(summary)
    print(f"wk: tau_c={tau_c:.9g} delta_lambda={dlam:.9g} product={tau_c * dlam:.9g}")
    return files


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigError(
            f"scenario {args.scenario!r} needs --" + ", --".join(missing)
        )


def _build_scenario_run(args, lambda_pad: float | None = None):
    sc = args.scenario
    if sc not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario {sc!r}; expected one of {SCENARIO_KINDS}")
    if sc == "linear":
        _require(args, ["dxs", "dxm"])
        return run_linear(
            LinearScenario(dx_s=args.dxs, dx_m=args.dxm, x0=args.x0 or 0.0, p0=args.p0 or 0.0)
        )
    if sc == "phase":
        _require(args, ["nmean", "dns"])
        return run_phase_gaussian(
            PhaseGaussianScenario(n_mean=args.nmean, dn_s=args.dns, dphi_m=args.dphim or 0.0)
        )
    if sc == "sg":
        _require(args, ["xi"])
        return run_phase_sg(SGScenario(xi=args.xi))
    if sc == "nonlinear":
        _require(args, ["vxs", "vxm"])
        spec = NonlinearScenario(
            vx_s=args.vxs, vx_m=args.vxm, x0=args.x0 or 0.0, p0=args.p0 or 0.0
        )
        if lambda_pad is not None and lambda_pad > spec.lambda_pad:
            spec = NonlinearScenario(
                vx_s=args.vxs, vx_m=args.vxm, x0=args.x0 or 0.0, p0=args.p0 or 0.0,
                lambda_pad=lambda_pad,
            )
        return run_nonlinear(spec)
    _require(args, ["vxs", "vxm"])
    return run_phase_coherent_squeezed(
        CoherentSqueezedScenario(
            vx_s=args.vxs, vx_m=args.vxm, x0=args.x0 or 0.0, p0=args.p0 or 0.0
        )
    )


def _scenario_params(args) -> dict:
    keys = ("dxs", "dxm", "nmean", "dns", "dphim", "xi", "vxs", "vxm", "x0", "p0")
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _cmd_fisher(args, outdir: str, fmt: str) -> list[str]:
    run = _build_scenario_run(args)
    step = args.step if args.step is not None else run.default_step
    numerical = fisher_from_family(run.family, 0.0, step, qfi=run.qfi)
    closed = run.closed_form
    agreement = (
        abs(numerical.fisher / closed.fisher - 1.0) if closed and closed.fisher else None
    )
    payload = {
        "scenario": run.scenario,
        "params": _scenario_params(args),
        "step": step,
        "numerical": {"fisher": numerical.fisher, "crb": numerical.crb},
        "qfi": run.qfi,
    }
    if closed is not None:
        payload["closed_form"] = {"fisher": closed.fisher, "crb": closed.crb}
        payload["agreement_rel"] = agreement
    files = []
    if fmt in ("json", "both"):
        path = os.path.join(outdir, "fisher.json")
        write_json(path, payload)
        files.append(path)
    print(
        f"fisher[{run.scenario}]: numerical={numerical.fisher:.9g}"
        + (f" closed={closed.fisher:.9g}" if closed else "")
    )
    return files


def _parse_lambdas(raw) -> list[float]:
    if raw is None:
        return [0.0]
    tokens = raw if isinstance(raw, (list, tuple)) else [t for t in str(raw).split(",") if t.strip()]
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad --lambdas value {raw!r}") from exc
    return [_finite(v, f"--lambdas {raw}") for v in values]


def _cmd_scenario(args, outdir: str, fmt: str) -> list[str]:
    lambdas = _parse_lambdas(args.lambdas)
    pad = 1.05 * max((abs(v) for v in lambdas), default=0.0)
    run = _build_scenario_run(args, lambda_pad=pad)
    files = []
    records = []
    for idx, lam in enumerate(lambdas):
        dist = run.family(lam)
        name = f"distribution_{idx:03d}.csv"
        if fmt in ("csv", "both"):
            path = os.path.join(outdir, name)
            if dist.density.ndim == 1:
                write_csv(path, ["mu", "p"], [dist.mu_grid, dist.density])
            else:
                mm, kk = np.meshgrid(dist.mu_grid, dist.k_grid, indexing="ij")
                write_csv(
                    path,
                    ["m", "k", "p"],
                    [mm.ravel(), kk.ravel(), dist.density.ravel()],
                )
            files.append(path)
        record = {"lambda": lam, "file": name, "mass": dist.total_mass()}
        if dist.density.ndim == 1:
            record["mean"] = dist.mean()
            record["variance"] = dist.variance()
            record["delta2_lambda"] = signal_uncertainty(dist) ** 2
        records.append(record)
    if fmt in ("json", "both"):
        summary = os.path.join(outdir, "summary.json")
        payload = {
            "scenario": run.scenario,
            "params": _scenario_params(args),
            "distributions": records,
        }
        if run.gamma is not None:
            dist0 = run.family(0.0)
            payload["tau_c"] = coherence_time(run.gamma)
            payload["wk_product"] = wk_product(run.gamma, dist0)
        if run.closed_form is not None:
            payload["closed_form"] = {
                "fisher": run.closed_form.fisher,
                "crb": run.closed_form.crb,
            }
        write_json(summary, payload)
        files.append(summary)
    print(f"scenario[{run.scenario}]: wrote {len(records)} distribution(s)")
    return files


def _cmd_optimize(args, outdir: str, fmt: str) -> list[str]:
    if args.objective not in ("linear", "nonlinear"):
        raise ConfigError(f"unknown objective {args.objective!r}")
    files = []
    if args.objective == "linear":
        opt = optimize_linear(args.budget)
        print(f"optimize[linear]: split={opt.split} delta2_lambda={opt.delta2_lambda:.9g}")
    else:
        opt = optimize_nonlinear(args.budget)
        print(f"optimize[nonlinear]: split={opt.split} ratio_to_qfi={opt.ratio_to_qfi}")
    payload = {"objective": args.objective, **dataclasses.asdict(opt)}
    if fmt in ("json", "both"):
        path = os.path.join(outdir, "optimum.json")
        write_json(path, payload)
        files.append(path)
    if args.sweep_samples is not None and fmt in ("csv", "both"):
        sweep = sweep_budget(args.budget, args.objective, args.sweep_samples)
        path = os.path.join(outdir, "sweep.csv")
        write_csv(path, ["split", "value"], [sweep.splits, sweep.values])
        files.append(path)
    return files


def _cmd_acceptance(args, outdir: str, fmt: str) -> tuple[list[str], bool]:
    if args.only is None:
        results = run_all()
    else:
        numbered = dict(enumerate(CRITERIA, start=1))
        if not isinstance(args.only, (int, float)) or args.only not in numbered:
            raise ConfigError(f"no acceptance criterion numbered {args.only}")
        results = [numbered[args.only]()]
    for res in results:
        print(res.line())
    all_pass = all(r.passed for r in results)
    files = []
    if fmt in ("json", "both"):
        path = os.path.join(outdir, "acceptance.json")
        write_json(
            path,
            {
                "all_pass": all_pass,
                "criteria": [
                    {
                        "index": r.index,
                        "name": r.name,
                        "passed": r.passed,
                        "checks": r.checks,
                    }
                    for r in results
                ],
            },
        )
        files.append(path)
    return files, all_pass


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with parameter defaults")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--format", default=None, choices=("csv", "json", "both"))


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", choices=SCENARIO_KINDS, default=None)
    for flag in ("dxs", "dxm", "nmean", "dns", "dphim", "xi", "vxs", "vxm", "x0", "p0", "step"):
        sub.add_argument(f"--{flag}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qruler",
        description="numerical lab for shift-invariant ruler measurement models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate-ruler", help="legitimacy checks for a ruler seed")
    p.add_argument("--ruler", default=None, help="e.g. gaussian:dphi=1 or ideal")
    p.add_argument("--grid", default=None, help="e.g. gmin=-8,gmax=8,n=512")
    _add_common(p)

    p = subs.add_parser("wk", help="coherence function and outcome statistics")
    p.add_argument("--probe", default=None, help="gaussian:sigma=1[,center=..,kc=..] or sg:xi=0.9")
    p.add_argument("--ruler", default=None, help="gaussian:dphi=0.5 or ideal")
    p.add_argument("--grid", default=None)
    _add_common(p)

    p = subs.add_parser("fisher", help="numerical and closed-form Fisher information")
    _add_scenario_flags(p)
    _add_common(p)

    p = subs.add_parser("scenario", help="emit outcome distributions for signal values")
    _add_scenario_flags(p)
    p.add_argument("--lambdas", default=None, help="comma-separated signal values")
    _add_common(p)

    p = subs.add_parser("optimize", help="coherence-budget optimization")
    p.add_argument("--objective", choices=("linear", "nonlinear"), default=None)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--sweep-samples", type=int, default=None, dest="sweep_samples")
    _add_common(p)

    p = subs.add_parser("acceptance", help="run the acceptance-criteria suite")
    p.add_argument("--only", type=int, default=None, help="run a single criterion")
    _add_common(p)
    return parser


_REQUIRED = {"validate-ruler": ["ruler"], "wk": ["probe", "ruler"],
             "fisher": ["scenario"], "scenario": ["scenario"],
             "optimize": ["objective", "budget"], "acceptance": []}


def _merge_config(args: argparse.Namespace) -> dict:
    """Overlay config-file values onto unset flags; flags take precedence."""
    merged = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        known = set(vars(args))
        for key, value in raw.items():
            dest = key.replace("-", "_")
            if dest not in known or dest in ("command", "config"):
                raise ConfigError(f"unknown config key {key!r} for {args.command!r}")
            if getattr(args, dest) is None:
                setattr(args, dest, value)
    for name in _REQUIRED[args.command]:
        if getattr(args, name) is None:
            raise ConfigError(f"{args.command} requires --{name}")
    for key, value in sorted(vars(args).items()):
        if isinstance(value, float):
            _finite(value, f"--{key} {value}")
        if key not in ("config",) and value is not None:
            merged[key] = value
    return merged


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        outdir = args.out or os.environ.get(OUTDIR_ENV) or "qruler_out"
        fmt = args.format or "both"
        if fmt not in ("csv", "json", "both"):
            raise ConfigError(f"unknown format {fmt!r}")
        os.makedirs(outdir, exist_ok=True)
        if args.command == "acceptance":
            files, all_pass = _cmd_acceptance(args, outdir, fmt)
        else:
            handler = {
                "validate-ruler": _cmd_validate_ruler,
                "wk": _cmd_wk,
                "fisher": _cmd_fisher,
                "scenario": _cmd_scenario,
                "optimize": _cmd_optimize,
            }[args.command]
            files, all_pass = handler(args, outdir, fmt), True
        write_manifest(outdir, args.command, merged, files)
        if not all_pass:
            return 4
        return 0
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
