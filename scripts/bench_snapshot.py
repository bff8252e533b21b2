"""Snapshot the benchmark into a BENCH_<n>.json file.

    python3 scripts/bench_snapshot.py --out BENCH_12.json \\
        --checkout parent=/path/to/parent --checkout change=. \\
        --workload fisher-joint --seeds 101 102 103

Runs ``perfbench/run.py --workload W --seed S --trace 0`` unedited, at
``BENCHMARK.json``'s ``run_seconds``, from the root of each checkout, one
run at a time.  For each workload and seed it runs every checkout before
the next seed, so each seed is one pair (or tuple) of runs; which checkout
runs first rotates from seed to seed.

The JSON file holds:

- every run's end-to-end metrics, attempted and failed op counts;
- per checkout, workload and metric, the median and quartiles over seeds;
- with two or more checkouts, per metric, the number of seeds on which each
  later checkout beats the first, in the direction ``BENCHMARK.json`` gives;
- each checkout's ``src/`` line count, its commit (when it is a git root,
  marked ``-dirty`` if its tree has uncommitted changes) and the git tree hash
  of its ``src/`` as it stands, which equals ``git rev-parse <commit>:src`` of
  any commit that holds the same ``src/``;
- the python, numpy, scipy and BLAS versions from ``run.py``'s metadata line;
- the benchmark's known gaps, as text.

A run takes ``run_seconds`` plus its set-up (about half a minute at 25 s),
so this script is not part of the test suite.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KNOWN_GAPS = (
    "ruler.kernel_bytes reads the nominal n^2*16 bytes of the Toeplitz view that "
    "RulerSeed.kernel returns over its 2n-1 mirrored lags, not memory that exists "
    "(perfbench/spans.py _kernel).",
    "cli-readme's op_ms.p50 is the median over a cycle of seven commands (about 0.6 to 6 ms "
    "each in process), so it reads the 4th-fastest command and its neighbours, which move with "
    "the host's speed state by more than the metric's 25 % bound with no code change.",
)


def src_lines(checkout: Path) -> int:
    """Lines of ``src/**/*.py``, counted as perfbench/run.py counts them."""
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (checkout / "src").rglob("*.py")
    )


def git_ids(checkout: Path) -> dict:
    """The checkout's commit and ``src/`` tree hash; both None if it is no git root.

    The tree hash is written from a scratch index, so the checkout's own
    index is left as it was.
    """
    def git(*cmd, env=None):
        out = subprocess.run(["git", "-C", str(checkout), *cmd],
                             capture_output=True, text=True, env=env)
        return out.stdout.strip() if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != checkout:
        return {"commit": None, "src_tree": None}
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "--all", "src", env=env)
        tree = git("write-tree", "--prefix=src/", env=env)
    return {"commit": git("describe", "--always", "--dirty"), "src_tree": tree}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``run.py --trace 0`` run: its result line and its metadata line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("metadata: "):]) for line in lines
                if line.startswith("metadata: "))
    return json.loads(lines[-1]), meta


def spread(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], labels: list[str], better: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        per = {}
        for label in labels:
            rows = [r for r in mine if r["checkout"] == label]
            per[label] = {
                "failed": sum(r["failed"] for r in rows),
                "attempted": sum(r["attempted"] for r in rows),
                **{m: spread([r["metrics"][m] for r in rows]) for m in better},
            }
        first = {r["seed"]: r["metrics"] for r in mine if r["checkout"] == labels[0]}
        for label in labels[1:]:
            wins = {}
            for m, direction in better.items():
                pairs = [(first[r["seed"]][m], r["metrics"][m])
                         for r in mine if r["checkout"] == label and r["seed"] in first]
                beat = [(b > a) if direction == "higher" else (b < a) for a, b in pairs]
                wins[m] = f"{sum(beat)}/{len(beat)}"
            per[label]["wins_over_" + labels[0]] = wins
        summary[workload] = per
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a source checkout to run (repeatable); the first is the baseline")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    checkouts = {}
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label or label in checkouts:
            parser.error(f"--checkout wants a new LABEL=PATH, got {item!r}")
        checkouts[label] = Path(path).resolve()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs, meta = [], {}
    order = list(checkouts.items())
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            for label, path in order[i % len(order):] + order[:i % len(order)]:
                result, meta = run_once(path, workload, seed, seconds)
                runs.append({
                    "checkout": label, "workload": workload, "seed": seed,
                    "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                })
                tput = result["metrics"]["throughput_ops_s"]["value"]
                print(f"{workload} seed={seed} {label}: {tput:.3f} ops/s "
                      f"failed={result['failed']}", flush=True)

    snapshot = {
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "checkouts": {label: {**git_ids(path), "src_lines": src_lines(path)}
                      for label, path in checkouts.items()},
        "versions": {k: meta.get(k) for k in ("python", "numpy", "scipy", "blas", "nproc")},
        "summary": summarize(runs, list(checkouts), better),
        "runs": runs,
        "known_gaps": list(KNOWN_GAPS),
    }
    args.out.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
