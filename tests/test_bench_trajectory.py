"""tools/bench_trajectory.py over the repo's BENCH files and over made-up ones."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_trajectory.py"


def _run(root):
    proc = subprocess.run([sys.executable, str(TOOL), str(root)], capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def test_every_paired_file_is_read_within_its_bounds():
    """Each BENCH file with a summary gets a line per workload and
    end-to-end metric, none worse than its bound; the others are listed as
    skipped."""
    code, lines = _run(ROOT)
    assert code == 0, lines
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    skipped = []
    for path in ROOT.glob("BENCH_*.json"):
        summary = json.loads(path.read_text()).get("summary")
        if summary is None:
            skipped.append(path.name)
            continue
        for workload in summary:
            for name in metrics:
                assert sum(line.split()[:3] == [path.stem, workload, name] for line in lines) == 1
    assert skipped
    assert all(name in lines[-1] for name in skipped) and lines[-1].startswith("skipped")
    assert not any("WORSE" in line for line in lines)


def _entry(parent, change, better_pairs=5):
    return {"parent_median": parent, "parent_iqr": [parent, parent], "change_median": change,
            "change_vs_parent": change / parent - 1.0 if parent else 0.0,
            "change_better_pairs": better_pairs, "pairs": 10}


def test_a_change_beyond_its_bound_is_flagged(tmp_path):
    """A change worse than its bound, relative or (from a parent median of
    0) absolute, is flagged and the exit status is 1; one within it is not;
    a file without a summary is skipped; nothing is written."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_tail_ms", "better": "lower", "bound": 0.25},
        {"name": "failed_share", "better": "lower", "bound": 0.1}]}))
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"workloads": {}}))
    (tmp_path / "BENCH_2.json").write_text(json.dumps({"summary": {"w": {
        "ops_per_s": _entry(100.0, 80.0), "op_tail_ms": _entry(1.0, 1.2),
        "failed_share": _entry(0.0, 0.05)}}}))
    before = sorted(tmp_path.iterdir())
    assert _run(tmp_path) == (0, [
        "BENCH_2   w          ops_per_s       -20.0%  better in  5/10",
        "BENCH_2   w          op_tail_ms      +20.0%  better in  5/10",
        "BENCH_2   w          failed_share     +0.0%  better in  5/10",
        "skipped (no summary): BENCH_1.json"])
    (tmp_path / "BENCH_3.json").write_text(json.dumps({"summary": {"w": {
        "ops_per_s": _entry(100.0, 70.0), "failed_share": _entry(0.0, 0.2)}}}))
    code, lines = _run(tmp_path)
    assert code == 1
    assert lines[3:5] == [
        "BENCH_3   w          ops_per_s       -30.0%  better in  5/10  WORSE than its bound 25%",
        "BENCH_3   w          failed_share     +0.0%  better in  5/10  WORSE than its bound 10%"]
    assert sorted(tmp_path.iterdir()) == before + [tmp_path / "BENCH_3.json"]
