#!/usr/bin/env python3
"""Print a sha256 digest of every CLI artifact, to compare two commits.

Runs, through ``qruler.cli.main``, every ``qruler`` line of the README
(the full acceptance suite included), ``fisher`` and ``scenario`` for
each of the five scenario kinds, ``wk`` and ``validate-ruler`` on an
explicit ``--grid``, ``wk`` on the deep ``sg:xi=0.999`` probe,
``validate-ruler`` on a narrow Gaussian seed, and ``fisher`` with an
explicit ``--step``, each
into its own directory under a working directory, and prints one
``example/file sha256`` line per artifact, sorted.  The working directory is temporary unless ``--keep
DIR`` names one, which then holds the artifacts afterwards.  Output
directories are relative, so manifests do not depend on where the run
happens.  Exits 1 if any example fails.

    PYTHONPATH=src python3 scripts/artifact_digests.py > digests.txt
    PYTHONPATH=src python3 scripts/artifact_digests.py --keep /tmp/new > digests.txt

Run it once per checkout (the README examples are this checkout's) and
``diff`` the two outputs: a behaviour-preserving change prints nothing.
When digests differ, ``scripts/artifact_diff.py OLD NEW`` on two kept
directories says by how much.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
import tempfile

from qruler.cli import main as qruler_main

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

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
# (which for nonlinear widens lambda_pad), the deep sg probe (13,810 number
# states) and a narrow seed
FLAG_EXAMPLES = {
    "grid-wk": "wk --probe gaussian:sigma=1 --ruler ideal --grid gmin=-10,gmax=10,n=300",
    "grid-validate-ruler": "validate-ruler --ruler ideal --grid gmin=-4,gmax=4,n=128",
    "deep-sg-wk": "wk --probe sg:xi=0.999 --ruler ideal",
    "narrow-validate-ruler": "validate-ruler --ruler gaussian:dphi=0.05",
    "step-fisher-linear": "fisher --scenario linear --dxs 0.5 --dxm 0.5 --step 1e-3",
    "step-fisher-nonlinear": "fisher --scenario nonlinear --vxs 0.25 --vxm 0.25 --step 0.03",
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
