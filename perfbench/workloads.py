"""The four benchmark workloads.

Each workload is one closed-loop caller.  ``inputs(i)`` derives op ``i``'s
inputs from the workload seed alone, ``run`` makes the timed calls into
qruler, and ``check`` applies the package's own gates to the result,
returning ``None`` on a pass or a one-line reason on a failure.  A full
``cycle`` of ops visits every input class once (grid sizes, families,
scenario kinds, CLI examples), so runs stop on cycle boundaries.

Calls go through module attributes (``coherence.coherence_function``, not
a name imported from it), so the span tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from qruler import cli, coherence, fisher, grids, ruler, scenarios, states

SQRT_PI = math.sqrt(math.pi)

# The package's own tolerances, never looser (acceptance.py criteria).
D2LAM_REL = 1e-6         # criteria 2 and 6: sampled delta^2 lambda vs closed form
PRODUCT_ABS = 1e-5       # criterion 1: tau_c * delta_lambda vs sqrt(pi)
FISHER_1D_REL = 1e-4     # criteria 3 and 6: 1-D numerical Fisher vs closed form
FISHER_JOINT_REL = 1e-3  # criterion 4: joint-readout Fisher vs closed form
OPTIMUM_ABS = 1e-8       # criterion 5: budget optimum split and F*/QF


def _rel(got: float, want: float) -> float:
    return abs(got / want - 1.0)


class Workload:
    name = ""
    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def setup(self) -> None:
        """Build the state every op shares; repeated to time set-up."""

    def inputs(self, i: int) -> dict:
        raise NotImplementedError

    def run(self, x: dict):
        raise NotImplementedError

    def reference(self, x: dict):
        raise NotImplementedError

    def check(self, x: dict, out) -> str | None:
        raise NotImplementedError


class WkPairs(Workload):
    """Fresh Gaussian probe/ruler pair per op through the `qruler wk` pipeline."""

    name = "wk-pairs"
    sizes = (256, 1024, 2048)
    cycle = len(sizes)

    def inputs(self, i):
        rng = self.rng(i)
        # criterion 1's parameter ranges
        return {
            "i": i,
            "n": self.sizes[i % self.cycle],
            "sigma": rng.uniform(0.5, 2.0),
            "center": rng.uniform(-1.0, 1.0),
            "k0": rng.uniform(-1.0, 1.0),
            "dphi": rng.uniform(0.05, 1.5),
        }

    def run(self, x):
        grid = grids.grid_for_gaussian(x["center"], x["sigma"], x["n"])
        spec = states.GaussianProbeSpec(x["center"], x["sigma"], x["k0"])
        probe = states.make_gaussian_probe(spec, grid)
        seed = ruler.make_gaussian_ruler(x["dphi"], grid)
        gamma = coherence.coherence_function(probe, seed)
        p = coherence.statistics_from_coherence(gamma)
        tau_c = coherence.coherence_time(gamma)
        dlam = coherence.signal_uncertainty(p)
        return {"tau_c": tau_c, "dlam": dlam, "product": coherence.wk_product(gamma, p)}

    def reference(self, x):
        return {
            "d2lam": coherence.GaussianModel(x["sigma"], x["dphi"]).delta2_lambda,
            "product": SQRT_PI,
        }

    def check(self, x, out):
        ref = self.reference(x)
        rel = _rel(out["dlam"] ** 2, ref["d2lam"])
        if not rel <= D2LAM_REL:
            return f"n={x['n']}: delta2_lambda rel err {rel:.3e} > {D2LAM_REL}"
        gap = abs(out["product"] - ref["product"])
        if not gap <= PRODUCT_ABS:
            return f"n={x['n']}: |product - sqrt(pi)| = {gap:.3e} > {PRODUCT_ABS}"
        return None


class FisherOneD(Workload):
    """One numerical Fisher evaluation per op on five prebuilt 1-D families."""

    name = "fisher-1d"
    families = (
        ("linear", lambda: scenarios.run_linear(scenarios.LinearScenario(0.5, 0.5)),
         lambda: fisher.closed_form_linear(0.5, 0.5).fisher),
        ("linear-ideal", lambda: scenarios.run_linear(scenarios.LinearScenario(0.5, 0.0)),
         lambda: fisher.closed_form_linear(0.5, 0.0).fisher),
        ("phase", lambda: scenarios.run_phase_gaussian(
            scenarios.PhaseGaussianScenario(n_mean=100.0, dn_s=5.0, dphi_m=0.1)),
         lambda: fisher.closed_form_phase(1.0 / (2.0 * 5.0), 0.1).fisher),
        ("sg-0.9", lambda: scenarios.run_phase_sg(scenarios.SGScenario(xi=0.9)),
         lambda: 1.0 / scenarios.sg_fisher_variance(0.9)),
        ("sg-0.999", lambda: scenarios.run_phase_sg(scenarios.SGScenario(xi=0.999)),
         lambda: 1.0 / scenarios.sg_fisher_variance(0.999)),
    )
    cycle = len(families)

    def setup(self):
        self.runs = [build() for _, build, _ in self.families]

    def inputs(self, i):
        return {"i": i, "family": i % self.cycle, "lambda0": self.rng(i).uniform(-1.0, 1.0)}

    def run(self, x):
        run = self.runs[x["family"]]
        rep = fisher.fisher_from_family(run.family, x["lambda0"], run.default_step, qfi=run.qfi)
        return rep.fisher

    def reference(self, x):
        return self.families[x["family"]][2]()

    def check(self, x, out):
        rel = _rel(out, self.reference(x))
        if not rel <= FISHER_1D_REL:
            name = self.families[x["family"]][0]
            return f"{name}: Fisher rel err {rel:.3e} > {FISHER_1D_REL}"
        return None


class FisherJoint(Workload):
    """Build one joint (m, k) scenario per op and evaluate its Fisher information."""

    name = "fisher-joint"
    kinds = ("nonlinear", "phase_coherent_squeezed")
    cycle = len(kinds)

    def inputs(self, i):
        rng = self.rng(i)
        kind = self.kinds[i % self.cycle]
        # criterion 4's parameter ranges
        x_hi = 1.0 if kind == "nonlinear" else 1.5
        return {
            "i": i,
            "kind": kind,
            "vx_s": rng.uniform(0.2, 1.0),
            "vx_m": rng.uniform(0.2, 1.0),
            "x0": rng.uniform(-x_hi, x_hi),
            "p0": rng.uniform(-1.5, 1.5),
        }

    def run(self, x):
        args = (x["vx_s"], x["vx_m"], x["x0"], x["p0"])
        if x["kind"] == "nonlinear":
            run = scenarios.run_nonlinear(scenarios.NonlinearScenario(*args))
        else:
            run = scenarios.run_phase_coherent_squeezed(scenarios.CoherentSqueezedScenario(*args))
        return fisher.fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi).fisher

    def reference(self, x):
        vx_s, vx_m = x["vx_s"], x["vx_m"]
        if x["kind"] == "nonlinear":
            return fisher.closed_form_fp2(vx_s, vx_m, x["p0"]).fisher
        return fisher.closed_form_fn(
            vx_s, 1.0 / (4.0 * vx_s), vx_m, 1.0 / (4.0 * vx_m), x["x0"], x["p0"]
        ).fisher

    def check(self, x, out):
        rel = _rel(out, self.reference(x))
        if not rel <= FISHER_JOINT_REL:
            return f"{x['kind']}: Fisher rel err {rel:.3e} > {FISHER_JOINT_REL}"
        return None


# The README's command-line examples, all but `qruler acceptance`.
README_EXAMPLES = (
    ("wk-gaussian", ["wk", "--probe", "gaussian:sigma=1", "--ruler", "gaussian:dphi=0.5"]),
    ("wk-sg", ["wk", "--probe", "sg:xi=0.9", "--ruler", "ideal"]),
    ("validate-ruler", ["validate-ruler", "--ruler", "gaussian:dphi=1"]),
    ("fisher-linear", ["fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5"]),
    ("fisher-nonlinear", ["fisher", "--scenario", "nonlinear", "--vxs", "0.25", "--vxm", "0.25"]),
    ("scenario-sg", ["scenario", "--scenario", "sg", "--xi", "0.9", "--lambdas", "0,0.3,0.6"]),
    ("optimize-nonlinear", ["optimize", "--objective", "nonlinear", "--budget", "4",
                            "--sweep-samples", "101"]),
)


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _artifact_digests(outdir: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class CliReadme(Workload):
    """The README CLI examples, in process through ``qruler.cli.main``.

    Each example writes into its own directory under ``out_root`` (a path
    relative to the checkout root, so the manifests, which record it, are
    byte-identical across checkouts).  The seed rotates the cycle's start.
    """

    name = "cli-readme"
    cycle = len(README_EXAMPLES)
    out_root = os.path.join("perfbench", "out", "cli-readme")

    def setup(self):
        self.digests: dict[str, dict[str, str]] = {}

    def inputs(self, i):
        name, argv = README_EXAMPLES[(i + self.seed) % self.cycle]
        outdir = os.path.join(self.out_root, name)
        return {"i": i, "example": name, "outdir": outdir, "argv": argv + ["--out", outdir]}

    def run(self, x):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(x["argv"])

    def reference(self, x):
        """Closed-form values each example's artifacts must reproduce."""
        return {
            "wk-gaussian": coherence.GaussianModel(1.0, 0.5).delta2_lambda,
            "wk-sg": scenarios.sg_wk_variance(0.9),
            "scenario-sg": scenarios.sg_wk_variance(0.9),
            "fisher-linear": fisher.closed_form_linear(0.5, 0.5).fisher,
            "fisher-nonlinear": fisher.closed_form_fp2(0.25, 0.25, 0.0).fisher,
            "optimize-nonlinear": (0.75, 0.375),
        }.get(x["example"])

    def check(self, x, code):
        if code != 0:
            return f"{x['example']}: exit code {code}"
        reason = self._check_artifacts(x)
        if reason is not None:
            return f"{x['example']}: {reason}"
        digests = _artifact_digests(x["outdir"])
        first = self.digests.setdefault(x["example"], digests)
        if digests != first:
            return f"{x['example']}: artifacts differ from an earlier repeat in this run"
        return None

    def _check_artifacts(self, x) -> str | None:
        example, outdir, ref = x["example"], x["outdir"], self.reference(x)
        if example.startswith("wk-"):
            summary = _load(outdir, "summary.json")
            rel = _rel(summary["delta2_lambda"], ref)
            if not rel <= D2LAM_REL:
                return f"delta2_lambda rel err {rel:.3e} > {D2LAM_REL}"
            gap = abs(summary["wk_product"] - SQRT_PI)
            if not gap <= PRODUCT_ABS:
                return f"|product - sqrt(pi)| = {gap:.3e} > {PRODUCT_ABS}"
        elif example == "validate-ruler":
            if _load(outdir, "ruler_report.json")["all_pass"] is not True:
                return "ruler legitimacy checks fail"
        elif example.startswith("fisher-"):
            tol = FISHER_1D_REL if example == "fisher-linear" else FISHER_JOINT_REL
            rel = _rel(_load(outdir, "fisher.json")["numerical"]["fisher"], ref)
            if not rel <= tol:
                return f"Fisher rel err {rel:.3e} > {tol}"
        elif example == "scenario-sg":
            summary = _load(outdir, "summary.json")
            records = summary["distributions"]
            if len(records) != 3:
                return f"expected 3 distributions, got {len(records)}"
            for rec in records:
                rel = _rel(rec["delta2_lambda"], ref)
                if not rel <= D2LAM_REL:
                    return f"lambda={rec['lambda']}: delta2_lambda rel err {rel:.3e} > {D2LAM_REL}"
            gap = abs(summary["wk_product"] - SQRT_PI)
            if not gap <= PRODUCT_ABS:
                return f"|product - sqrt(pi)| = {gap:.3e} > {PRODUCT_ABS}"
        elif example == "optimize-nonlinear":
            opt = _load(outdir, "optimum.json")
            split, ratio = ref
            if not abs(opt["split_numeric"] - split) <= OPTIMUM_ABS:
                return f"split {opt['split_numeric']!r} vs {split}"
            got_ratio = opt["fisher_numeric"] / opt["qfi"]
            if not abs(got_ratio - ratio) <= OPTIMUM_ABS:
                return f"F*/QF {got_ratio!r} vs {ratio}"
            if not os.path.exists(os.path.join(outdir, "sweep.csv")):
                return "sweep.csv missing"
        return None


WORKLOADS = {w.name: w for w in (WkPairs, FisherOneD, FisherJoint, CliReadme)}
