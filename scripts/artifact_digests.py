#!/usr/bin/env python3
"""Print a sha256 digest of every CLI artifact, to compare two commits.

Runs, through ``qruler.cli.main``, every ``qruler`` line of the README
(the full acceptance suite included), ``fisher`` and ``scenario`` for
each of the five scenario kinds, ``wk`` and ``validate-ruler`` on an
explicit ``--grid``, ``wk`` on the deep ``sg:xi=0.999`` probe,
``validate-ruler`` on a narrow Gaussian seed, ``fisher`` with an
explicit ``--step``, ``fisher`` on a wide nonlinear probe and
``scenario`` on a linear probe displaced far off zero (x0 = 150), then
the three experiment scripts (``wk_demo.py``, ``budget_curves.py``,
``generator_power_widths.py``, in process with their default
arguments), each into its own directory under a working
directory, and prints one ``example/file sha256`` line per artifact,
sorted.  The working directory is temporary unless ``--keep
DIR`` names one, which then holds the artifacts afterwards.  Output
directories are relative, so manifests do not depend on where the run
happens.  Exits 1 if any example fails.

    PYTHONPATH=src python3 scripts/artifact_digests.py > digests.txt
    PYTHONPATH=src python3 scripts/artifact_digests.py --keep /tmp/new > digests.txt

Run it once per checkout (the README examples are this checkout's) and
``diff`` the two outputs: a behaviour-preserving change prints nothing.
When digests differ, ``scripts/artifact_diff.py OLD NEW`` on two kept
directories says by how much.

Artifacts print eigensolver and GEMM roundoff, which depends on the BLAS
thread count, so the script sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before it imports
``qruler``: digests from two shells then compare whatever their
environments set.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import runpy
import shlex
import sys
import tempfile

for _blas_threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_blas_threads] = "1"

from qruler.cli import main as qruler_main  # noqa: E402  (after the BLAS thread count is set)

HERE = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(HERE, os.pardir, "README.md")
# experiment scripts that write CSVs into the current directory
SCRIPTS = ("wk_demo.py", "budget_curves.py", "generator_power_widths.py")

# (name, argv) for fisher and scenario on every scenario kind, with the
# optional displacements and, for scenario, more than one signal value
SCENARIO_EXAMPLES = {
    "linear": "--dxs 0.5 --dxm 0.3 --x0 0.4 --p0 -0.2",
    "phase": "--nmean 100 --dns 5 --dphim 0.1",
    "sg": "--xi 0.7",
    "nonlinear": "--vxs 0.3 --vxm 0.5 --x0 0.2 --p0 0.6",
    "phase-cs": "--vxs 0.2 --vxm 0.5 --x0 1 --p0 0.5",
}
LAMBDAS = {"linear": "0,0.5", "phase": "0,0.05", "sg": "0,1", "nonlinear": "0,0.02",
           "phase-cs": "0,0.3"}
# flags no README example passes: user-built grids, an explicit step
# (which for nonlinear widens lambda_pad), a wide nonlinear probe whose
# exact F reads axes sized for the default lambda_pad alone (a step of
# 1e-3*sqrt(CRB), 0.181 there, would reach past it; the default step is
# capped at 1e-3*pi), the deep sg probe (13,810 number states), a
# narrow seed and a linear x0 beyond the half-span of its x0 = 0 axis
FLAG_EXAMPLES = {
    "grid-wk": "wk --probe gaussian:sigma=1 --ruler ideal --grid gmin=-10,gmax=10,n=300",
    "grid-validate-ruler": "validate-ruler --ruler ideal --grid gmin=-4,gmax=4,n=128",
    "deep-sg-wk": "wk --probe sg:xi=0.999 --ruler ideal",
    "narrow-validate-ruler": "validate-ruler --ruler gaussian:dphi=0.05",
    "step-fisher-linear": "fisher --scenario linear --dxs 0.5 --dxm 0.5 --step 1e-3",
    "step-fisher-nonlinear": "fisher --scenario nonlinear --vxs 0.25 --vxm 0.25 --step 0.03",
    "wide-fisher-nonlinear": "fisher --scenario nonlinear --vxs 20 --vxm 0.25",
    "far-x0-scenario-linear": "scenario --scenario linear --dxs 0.5 --dxm 0.5 --x0 150 --lambdas 0,0.5",
}


def readme_examples() -> list[tuple[str, list[str]]]:
    with open(README, "r", encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), flags=re.S)
    lines = [ln.strip() for block in blocks for ln in block.splitlines()]
    argvs = [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("qruler ")]
    return [(f"readme-{i:02d}-{argv[0]}", argv) for i, argv in enumerate(argvs, start=1)]


def scenario_examples() -> list[tuple[str, list[str]]]:
    examples = []
    for kind, flags in SCENARIO_EXAMPLES.items():
        base = ["--scenario", kind, *flags.split()]
        examples.append((f"fisher-{kind}", ["fisher", *base]))
        examples.append((f"scenario-{kind}", ["scenario", *base, "--lambdas", LAMBDAS[kind]]))
    return examples + [(name, argv.split()) for name, argv in FLAG_EXAMPLES.items()]


def digests(workdir: str, name: str) -> list[str]:
    outdir = os.path.join(workdir, name)
    lines = []
    for file in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, file), "rb") as fh:
            lines.append(f"{name}/{file} {hashlib.sha256(fh.read()).hexdigest()}")
    return lines


def run_script(script: str, outdir: str) -> None:
    """Run ``scripts/<script>`` as ``__main__`` with no arguments inside ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    home, argv = os.getcwd(), sys.argv
    os.chdir(outdir)
    sys.argv = [script]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(os.path.join(HERE, script), run_name="__main__")
    finally:
        sys.argv = argv
        os.chdir(home)


def run_examples(workdir: str) -> tuple[list[str], list[str]]:
    """Run every example into ``workdir``; return digest lines and failures."""
    lines, failed = [], []
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in readme_examples() + scenario_examples():
            with contextlib.redirect_stdout(io.StringIO()):
                code = qruler_main(argv + ["--out", name])
            if code != 0:
                failed.append(f"{name}: exit {code}")
            if os.path.isdir(name):
                lines += digests(workdir, name)
        for script in SCRIPTS:  # a failing script raises, which exits 1 too
            name = f"script-{os.path.splitext(script)[0]}"
            run_script(script, name)
            lines += digests(workdir, name)
    finally:
        os.chdir(home)
    return lines, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--keep", metavar="DIR", help="write the artifacts here and keep them")
    args = ap.parse_args()
    if args.keep is None:
        with tempfile.TemporaryDirectory() as workdir:
            lines, failed = run_examples(workdir)
    else:
        os.makedirs(args.keep, exist_ok=True)
        lines, failed = run_examples(os.path.abspath(args.keep))
    print("\n".join(sorted(lines)))
    for reason in failed:
        print(reason, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
