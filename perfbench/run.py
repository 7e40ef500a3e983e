"""ordrank benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload {simulate,ingest,evaluate,rates} \\
        --seed N --seconds S --trace {0,1}

One process per run, one thread.  The run sets up the workload's inputs
(timed from interpreter start in three child processes, ``setup_s``), then
repeats passes of the workload until ``--seconds`` of timed passes have
accumulated, checks every output, and prints a table of every metric with
its unit and sample count, followed by one JSON line with the end-to-end
metrics (``--trace 0``) or the per-layer ones (``--trace 1``).  A traced run
times its first third untraced, so it also reports the tracing overhead.
A manifest of the run goes to ``.perfbench_out/``.

Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="internal: set up into DIR, print the ready time, exit")
    return p.parse_args(argv)


def load_program(root: Path) -> None:
    src = root / "src"
    if not (src / "ordrank" / "__init__.py").is_file():
        raise BenchError(f"no ordrank sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))


def measure_setup(args, workdir: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to inputs ready, per probe."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(probe_dir)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
        shutil.rmtree(probe_dir)
    return samples


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def source_lines(pkg: Path) -> int:
    """Non-blank, non-comment lines of the package's Python sources."""
    count = 0
    for path in sorted(pkg.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            count += bool(stripped) and not stripped.startswith("#")
    return count


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def timed_passes(workload, seconds: float, first_pass: int, ops: list) -> list[float]:
    """Run passes until their summed time reaches ``seconds`` (at least one)."""
    times: list[float] = []
    passno = first_pass
    while not times or sum(times) < seconds:
        workload.prepare(passno)
        t0 = time.perf_counter()
        pass_ops = workload.run_pass(passno)
        times.append(time.perf_counter() - t0)
        workload.after_pass(pass_ops)
        ops += pass_ops
        passno += 1
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads; probes inherit it
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        load_program(root)
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]()
        if args.setup_probe:
            import ordrank  # noqa: F401

            workload.setup(Path(args.setup_probe), args.seed)
            print(repr(time.monotonic()))
            return 0
        return run(args, root, spec, workload)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args, root: Path, spec: dict, workload) -> int:
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        setup_samples = measure_setup(args, workdir)
        import numpy
        import scipy

        sizes = workload.setup(workdir, args.seed)
        untraced_ops: list = []
        ops: list = []  # the ops of the measured passes
        tracer = None
        if args.trace:
            untraced = timed_passes(workload, args.seconds / 3.0, 0, untraced_ops)
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                pass_times = timed_passes(workload, args.seconds * 2.0 / 3.0,
                                          len(untraced), ops)
            finally:
                tracer.uninstall()
        else:
            pass_times = timed_passes(workload, args.seconds, 0, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_ops = untraced_ops + ops
        workload.check(all_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op.error is not None for op in all_ops)
    n_passes = len(pass_times)
    wall_s = sum(pass_times) / n_passes
    lat_ms = [op.seconds * 1e3 for op in ops if op.kind == workload.latency_kind]
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (wall_s, "s", n_passes),
        "work_per_s": (workload.work(ops) / sum(pass_times), f"{workload.work_unit}/s",
                       n_passes),
        "op_p50_ms": (statistics.median(lat_ms), "ms", len(lat_ms)),
        "op_p90_ms": (percentile(lat_ms, 0.9), "ms", len(lat_ms)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_op_share": (failed / len(all_ops), "ratio", len(all_ops)),
    }
    per_layer = {}
    if tracer is not None:
        per_layer = tracer.metrics(n_passes)
        per_layer["trace.overhead_s"] = wall_s - sum(untraced) / len(untraced)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={n_passes} ops={len(all_ops)} failed={failed}")
    for name, (value, unit, samples) in end_to_end.items():
        label = workload.rate_name if name == "work_per_s" else name
        print(f"  {label:<24} {value:>14.6g} {unit:<12} n={samples}")
    for name in sorted(per_layer):
        print(f"  {name:<44} {per_layer[name]:>14.6g}")
    for op in all_ops:
        if op.error:
            print(f"  FAILED {op.kind} {op.key} pass {op.passno}: {op.error}")

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(root),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "platform": platform.platform(), "inputs": sizes,
        "seed_lineage": "inputs from --seed; per-pass program seeds from SeedSequence([seed, n])",
        "source_lines": source_lines(root / "src" / "ordrank"),
        "passes": n_passes, "pass_seconds": pass_times,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in end_to_end.items()},
        "per_layer": per_layer,
        "ops": len(all_ops), "failed": failed,
        "failures": [f"{op.kind} {op.key} pass {op.passno}: {op.error}"
                     for op in all_ops if op.error],
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"manifest-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(manifest, indent=1, default=str) + "\n", encoding="utf-8")

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else {k: v[0] for k, v in end_to_end.items()}
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            raise BenchError(f"benchmark does not measure {m['name']!r}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": len(all_ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
