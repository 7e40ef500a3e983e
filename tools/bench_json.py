"""Collect perfbench manifests of a parent and a change into one bench file.

Run ``perfbench/run.py`` from a checkout of each side with the same seeds,
run length and trace setting, alternating which side runs first; each run
leaves ``.perfbench_out/manifest-<workload>-seed<n>-trace<t>.json`` behind.
Then, from the repository root::

    python tools/bench_json.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        --out BENCH_<n>.json

For every workload and trace setting the file gives each side's commit,
net source lines, run count, failed ops, and per metric the median and
quartiles over runs. For a metric whose direction ``BENCHMARK.json`` fixes,
it also counts the seeds on which the change read better than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_manifests(checkout: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """{(workload, trace): {seed: manifest}} from a checkout's ``.perfbench_out``."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted((checkout / ".perfbench_out").glob("manifest-*.json")):
        m = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((m["workload"], m["trace"]), {})[m["seed"]] = m
    if not runs:
        raise SystemExit(f"bench_json: no manifests under {checkout / '.perfbench_out'}")
    return runs


def metric_values(manifest: dict) -> dict[str, float]:
    values = {k: v["value"] for k, v in manifest["end_to_end"].items()}
    values.update(manifest["per_layer"])
    return values


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def only(values: set, what: str):
    """The one value every run of a side shares; a mix means mixed inputs."""
    if len(values) != 1:
        raise SystemExit(f"bench_json: runs disagree on {what}: {sorted(values, key=str)}")
    return values.pop()


def compare(parent: dict[int, dict], change: dict[int, dict], better: dict[str, str]) -> dict:
    """Both sides of one workload and trace setting, over their shared seeds."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        raise SystemExit("bench_json: parent and change share no seed")
    sides = {"parent": [parent[s] for s in seeds], "change": [change[s] for s in seeds]}
    out = {"seeds": seeds,
           "seconds": only({m["seconds"] for runs in sides.values() for m in runs},
                           "run length")}
    for side, runs in sides.items():
        out[side] = {
            "commit": only({m["commit"] for m in runs}, f"{side} commit"),
            "source_lines": only({m["source_lines"] for m in runs}, f"{side} source lines"),
            "runs": len(runs),
            "ops": sum(m["ops"] for m in runs),
            "failed_ops": sum(m["failed"] for m in runs),
        }
    values = {side: [metric_values(m) for m in runs] for side, runs in sides.items()}
    names = set.intersection(*(set(v) for runs in values.values() for v in runs))
    out["metrics"] = {}
    for name in sorted(names):
        per_side = {side: [v[name] for v in runs] for side, runs in values.items()}
        entry = {side: summary(v) for side, v in per_side.items()}
        if name in better:  # a seed's pair is won when the change reads better
            lower = better[name] == "lower"
            entry["better"] = better[name]
            entry["change_wins"] = sum(c < p if lower else c > p for p, c in
                                       zip(per_side["parent"], per_side["change"]))
        out["metrics"][name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_manifests(args.parent), load_manifests(args.change)
    bench = {f"{w}/trace{t}": compare(parent[(w, t)], change[(w, t)], better)
             for w, t in sorted(set(parent) & set(change))}
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
