"""netportrait benchmark: one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload hop-compare --seed 1 --seconds 10 --trace 0

Workloads are described in BENCHMARK.json and bench/README.md. The command
generates the workload's inputs from --seed, measures set-up time, runs the
workload's command in a fresh worker process for --seconds, checks every
output against an independent reference, prints each metric by name with its
unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run. Exit code 0 on a completed run, 2 when
the program's sources are missing, 1 when the worker could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import SIZES, make_case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_SPAWNS = 15


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        # the ceiling keeps git from finding a repository above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit}


def _setup_seconds(env: dict) -> float:
    """Median wall time from starting a fresh interpreter to netportrait.cli
    imported (interpreter start-up and exit included)."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import netportrait.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _env() -> dict:
    """Environment whose PYTHONPATH puts this checkout's sources first."""
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *rest]))


def run_worker(workload: str, case, workdir: Path, seconds: float, trace: bool) -> dict:
    """Run the case's command in a fresh worker process; return its record."""
    spec = {"argv": case.argv, "src": str(SRC), "seconds": seconds, "trace": trace,
            "capture": workload == "rewiring-experiment",
            "run_id": f"{workload}-{workdir.name}", "spans": str(workdir / "spans.jsonl"),
            "result": str(workdir / "worker.json")}
    (workdir / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(workdir / "spec.json")],
                   env=_env(), cwd=ROOT, check=True, timeout=10 * seconds + 60)
    return json.loads((workdir / "worker.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; return the result record (see module docstring)."""
    workdir = ROOT / ".bench_work" / f"{workload}-{size}-s{seed}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    case = make_case(workload, seed, workdir / "inputs", size)
    setup_s = None if trace else _setup_seconds(_env())
    res = run_worker(workload, case, workdir, seconds, trace)

    want = reference.expected(workload, case, res["captured"])
    errors = [reference.check(workload, want, text) for text in res["outputs"]]
    for r in res["runs"]:
        r["failed"] = r["code"] != 0 or bool(errors[r["output"]])
    timed = [r for r in res["runs"] if r["kind"] == "timed"]
    record = {
        "workload": workload, "seed": seed, "trace": trace, "size": size,
        "env": _environment(), "command": ["netportrait", *case.argv],
        "attempted": len(res["runs"]), "failed": sum(r["failed"] for r in res["runs"]),
        "problems": [e for errs in errors for e in errs][:10] + res["errors"],
        "counts_repeat": res.get("counts_repeat", True),
    }
    if trace:
        values = res["layers"]
    else:
        values = {
            "wall_s": statistics.median(r["wall"] for r in timed),
            "pairs_per_s": (case.pairs * sum(not r["failed"] for r in timed)
                            / sum(r["wall"] for r in timed)),
            "peak_rss_mb": res["maxrss_mb"],
            "setup_s": setup_s,
        }
        record["timed_runs"] = len(timed)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record["metrics"] = {m["name"]: (values[m["name"]], m["unit"])
                         for m in declared["per_layer" if trace else "end_to_end"]}
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def _print(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}"
          f" size {record['size']}")
    print("env " + json.dumps(record["env"]))
    print("command " + " ".join(record["command"]))
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    if "timed_runs" in record:
        print(f"(wall_s is the median of {record['timed_runs']} timed runs; "
              f"setup_s the median of {SETUP_SPAWNS} start-ups)")
    print(f"failed_frac = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} runs)")
    for problem in record["problems"]:
        print("problem: " + problem.strip().replace("\n", " | "))
    if not record["counts_repeat"]:
        print("problem: per-layer counts differ between traced runs")
    print(json.dumps({
        "correct": record["failed"] == 0 and record["counts_repeat"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "netportrait" / "cli.py").is_file():
        print(f"error: no netportrait sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
