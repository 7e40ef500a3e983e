"""``tools/bench_json.py`` pairs perfbench manifests of a parent and a change
by seed and summarises each side."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_json", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def write_manifest(checkout: Path, seed: int, wall_s: float, source_lines: int = 100,
                   failed: int = 0) -> None:
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": "evaluate", "seed": seed, "seconds": 20.0, "trace": 0,
                "commit": checkout.name, "source_lines": source_lines, "ops": 4,
                "failed": failed, "per_layer": {},
                "end_to_end": {"wall_s": {"value": wall_s, "unit": "s", "samples": 3}}}
    (out / f"manifest-evaluate-seed{seed}-trace0.json").write_text(json.dumps(manifest))


def test_pairs_by_seed_and_counts_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(3.0, 1.0), (3.2, 1.1), (2.9, 3.5), (3.1, 1.0)]):
        write_manifest(parent, seed, p)
        write_manifest(change, seed, c, source_lines=90, failed=seed == 2)
    write_manifest(parent, 99, 0.1)  # no change run on this seed: left out
    out = tmp_path / "bench.json"
    assert load_tool().main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out)]) == 0
    got = json.loads(out.read_text())["evaluate/trace0"]
    assert got["seeds"] == [0, 1, 2, 3]
    assert got["parent"] == {"commit": "parent", "source_lines": 100, "runs": 4,
                             "ops": 16, "failed_ops": 0}
    assert got["change"]["source_lines"] == 90 and got["change"]["failed_ops"] == 1
    wall = got["metrics"]["wall_s"]
    assert wall["parent"]["median"] == pytest.approx(3.05)
    assert wall["change"]["median"] == pytest.approx(1.05)
    assert (wall["better"], wall["change_wins"]) == ("lower", 3)


def test_mixed_source_lines_on_one_side_refused(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        write_manifest(parent, seed, 3.0)
        write_manifest(change, seed, 1.0, source_lines=90 + seed)
    with pytest.raises(SystemExit, match="source lines"):
        load_tool().main(["--parent", str(parent), "--change", str(change),
                          "--out", str(tmp_path / "bench.json")])
