"""The benchmark's trajectory: every paired BENCH_<n>.json at the repo root,
read against BENCHMARK.json's end-to-end bounds.

For each file with a top-level ``summary`` (BENCH_24 on), prints, per
workload and end-to-end metric, the change's median against the parent's
(``change_vs_parent``) and the pairs in which the change read better
(``change_better_pairs`` of ``pairs``), and flags a change worse than the
metric's ``bound``: relative, or absolute where the parent's median is 0 (a
failed share).  Older files, whose shapes differ, are listed as skipped.
Writes nothing; exits 1 when a change is flagged, else 0.

    python3 tools/bench_trajectory.py [repo root]
"""

import json
import re
import sys
from pathlib import Path


def _number(path):
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def change_vs_parent(entry):
    """The recorded ``change_vs_parent``, or, in a file that left it out,
    the same ratio of the medians less 1 (None where the parent's is 0)."""
    if "change_vs_parent" in entry:
        return entry["change_vs_parent"]
    parent = entry["parent_median"]
    return entry["change_median"] / parent - 1.0 if parent else None


def worse_by(entry, better):
    """How much worse the change reads than the parent, as a share: > 0 is
    worse.  Relative to the parent's median, or absolute where it is 0."""
    parent, change = entry["parent_median"], entry["change_median"]
    moved = change_vs_parent(entry) if parent else change - parent
    return moved if better == "lower" else -moved


def trajectory(root):
    """(lines, flagged count) for the BENCH files under ``root``."""
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    files = sorted(root.glob("BENCH_*.json"), key=_number)
    lines, skipped, flagged = [], [], 0
    for path in files:
        summary = json.loads(path.read_text()).get("summary")
        if summary is None:
            skipped.append(path.name)
            continue
        for workload, read in summary.items():
            for m in metrics:
                entry = read.get(m["name"])
                if entry is None:
                    continue
                worse = worse_by(entry, m["better"])
                flag = worse > m["bound"]
                flagged += flag
                moved = change_vs_parent(entry)
                better = entry.get("change_better_pairs")
                lines.append(
                    f"{path.stem:9s} {workload:10s} {m['name']:13s} "
                    + ("     n/a" if moved is None else f"{moved:+8.1%}")
                    + f"  better in {'?' if better is None else better:>2}/{entry['pairs']}"
                    + (f"  WORSE than its bound {m['bound']:.0%}" if flag else ""))
    lines.append(f"skipped (no summary): {', '.join(skipped) or 'none'}")
    return lines, flagged


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    lines, flagged = trajectory(root)
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
