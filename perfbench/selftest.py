"""Harness self-test: the runner must count every broken op as a failure.

    python3 perfbench/selftest.py

Runs the runner's untraced measurement on real workloads whose reference
is perturbed beyond its gate on every other op, whose run raises once, or
whose CLI artifacts change between repeats.  Each broken op must show up
in ``fail_ratio`` and be left out of ``throughput_ops_s``.  Exits 0 when
every case holds; a run of about 40 s.
"""

import os
import sys
from types import SimpleNamespace

import run  # fixes the thread pool and imports qruler from src/
from workloads import FISHER_1D_REL, CliReadme, FisherOneD


class PerturbedReference(FisherOneD):
    """Odd ops are checked against a reference ten gates away."""

    def reference(self, x):
        ref = super().reference(x)
        return ref * (1.0 + 10.0 * FISHER_1D_REL) if x["i"] % 2 else ref


class RaisingOp(FisherOneD):
    def run(self, x):
        if x["i"] == 3:
            raise RuntimeError("injected failure")
        return super().run(x)


class ChangedArtifacts(CliReadme):
    """Every repeat of fisher-linear after its first leaves different bytes."""

    def run(self, x):
        code = super().run(x)
        if x["example"] == "fisher-linear" and x["example"] in self.digests:
            with open(os.path.join(x["outdir"], "fisher.json"), "a", encoding="utf-8") as fh:
                fh.write(" ")
        return code


def expect(label, wl, failed) -> bool:
    metrics, side, _ = run.end_to_end(wl, SimpleNamespace(seconds=0.0))
    want_failed = failed(side.attempted)
    tput, passed = metrics["throughput_ops_s"]
    ratio, attempted = metrics["fail_ratio"]
    ok = (
        side.failed == want_failed
        and passed == attempted - want_failed
        and ratio == want_failed / attempted
        and tput == side.throughput(wl.cycle)
        and (want_failed == 0 or tput < side.op_rate(wl.cycle))
    )
    print(f"{'ok' if ok else 'FAIL'}: {label}: attempted={attempted} failed={side.failed} "
          f"(want {want_failed}) fail_ratio={ratio:.3f} counted_in_throughput={passed}")
    return ok


def main() -> int:
    os.chdir(run.ROOT)
    cases = [
        expect("unperturbed fisher-1d", FisherOneD(1), lambda n: 0),
        expect("perturbed reference on odd ops", PerturbedReference(1), lambda n: n // 2),
        expect("op that raises", RaisingOp(1), lambda n: 1),
        expect("cli artifacts change on repeat", ChangedArtifacts(0),
               lambda n: sum(1 for i in range(n)
                             if CliReadme(0).inputs(i)["example"] == "fisher-linear")),
    ]
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
