#!/usr/bin/env python3
"""Say by how much the CLI artifacts of two runs differ.

Takes two directories written by ``scripts/artifact_digests.py --keep``
(one ``example/`` directory per example) and prints, for every
``example/file`` in either:

* ``identical`` when the bytes match;
* for a CSV, its data rows old -> new and, when the row counts match, the
  largest absolute change of each numeric column and that change relative
  to the column's largest old magnitude;
* for a JSON file, its leaf count old -> new and, for each leaf that
  changed, the absolute and relative change (numbers) or old -> new
  (anything else);
* ``only in OLD`` / ``only in NEW`` for a file present on one side.

    PYTHONPATH=src python3 scripts/artifact_digests.py --keep /tmp/old   # at the old commit
    PYTHONPATH=src python3 scripts/artifact_digests.py --keep /tmp/new   # at the new commit
    python3 scripts/artifact_diff.py /tmp/old /tmp/new
"""

import argparse
import csv
import json
import math
import os
import sys


def artifact_files(root: str) -> set[str]:
    return {
        os.path.join(example, name)
        for example in os.listdir(root)
        if os.path.isdir(os.path.join(root, example))
        for name in os.listdir(os.path.join(root, example))
    }


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def leaves(obj, prefix: str = "") -> dict:
    """Flatten nested dicts and lists into {'a.b[2].c': value}."""
    if isinstance(obj, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        out.update(leaves(value, key))
    return out


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative(change: float, scale: float) -> float:
    if change == 0.0:
        return 0.0
    return change / scale if scale > 0 else math.inf


def diff_csv(old: str, new: str) -> list[str]:
    (head_old, rows_old), (head_new, rows_new) = read_csv(old), read_csv(new)
    lines = [f"  rows {len(rows_old)} -> {len(rows_new)}"]
    if head_old != head_new:
        return lines + [f"  header {head_old} -> {head_new}"]
    if len(rows_old) != len(rows_new):
        return lines + ["  row counts differ; values not compared"]
    for j, name in enumerate(head_old):
        try:
            a = [float(r[j]) for r in rows_old]
            b = [float(r[j]) for r in rows_new]
        except ValueError:
            same = all(r[j] == s[j] for r, s in zip(rows_old, rows_new))
            lines.append(f"  {name}: {'unchanged' if same else 'changed'} (not numeric)")
            continue
        change = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
        scale = max((abs(x) for x in a), default=0.0)
        lines.append(f"  {name}: max abs {change:.3g}, rel to max|old| {relative(change, scale):.3g}")
    return lines


def diff_json(old: str, new: str) -> list[str]:
    with open(old, encoding="utf-8") as fh:
        a = leaves(json.load(fh))
    with open(new, encoding="utf-8") as fh:
        b = leaves(json.load(fh))
    lines = [f"  leaves {len(a)} -> {len(b)}"]
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, "<absent>"), b.get(key, "<absent>")
        if x == y:
            continue
        if is_number(x) and is_number(y):
            change = abs(x - y)
            lines.append(f"  {key}: abs {change:.3g}, rel {relative(change, abs(x)):.3g}")
        else:
            lines.append(f"  {key}: {x!r} -> {y!r}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args()
    old_files, new_files = artifact_files(args.old), artifact_files(args.new)
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            print(f"{rel}: only in OLD")
            continue
        if rel not in old_files:
            print(f"{rel}: only in NEW")
            continue
        old, new = os.path.join(args.old, rel), os.path.join(args.new, rel)
        with open(old, "rb") as fa, open(new, "rb") as fb:
            if fa.read() == fb.read():
                print(f"{rel}: identical")
                continue
        print(f"{rel}: differs")
        body = diff_csv(old, new) if rel.endswith(".csv") else diff_json(old, new)
        print("\n".join(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
