"""Run one workload's command in this fresh process and record what happened.

Usage: python3 bench/worker.py SPEC.json

The spec names the command line, the time budget and whether to trace. The
command runs in-process through ``netportrait.cli.main(argv)`` with stdout
and stderr captured, as a closed loop with one client: the next run starts
when the previous one has returned. The first run is an untimed warm-up;
on the rewiring experiment it also captures every graph the generators
return, for the reference check. The result goes to the spec's result path.
"""

from __future__ import annotations

import gc
import inspect
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import wraps
from pathlib import Path

import numpy as np

import tracing


class Runner:
    """Runs the command and keeps each distinct output once."""

    def __init__(self, cli, argv: list[str]):
        self.cli, self.argv = cli, argv
        self.outputs: list[str] = []
        self.errors: list[str] = []
        self.runs: list[dict] = []

    def run(self, kind: str) -> dict:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                # looked up on each run, so that a traced run enters the wrapper
                code = self.cli.main(self.argv)
        except Exception:  # the program failed; record it and keep measuring
            code = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        text = out.getvalue()
        if text not in self.outputs:
            self.outputs.append(text)
        if code != 0 and len(self.errors) < 3:
            self.errors.append(err.getvalue()[-2000:])
        rec = {"kind": kind, "wall": wall, "cpu": cpu, "code": code,
               "output": self.outputs.index(text)}
        self.runs.append(rec)
        return rec


@contextmanager
def capture_graphs(store: dict):
    """Record every graph the ensembles functions return, and which base
    graph each rewired copy came from."""
    bases: list[dict] = store.setdefault("bases", [])
    pairs: list[dict] = store.setdefault("pairs", [])
    index: dict[int, int] = {}

    def make(name, fn):
        short = name.split(".")[1]
        sig = inspect.signature(fn)

        @wraps(fn)
        def record(*args, **kwargs):
            g = fn(*args, **kwargs)
            edges = np.asarray(g.edges, dtype=np.int32).reshape(-1, 2)
            if short in ("erdos_renyi", "barabasi_albert"):
                index[id(g)] = len(bases)
                bases.append({"model": "er" if short == "erdos_renyi" else "ba",
                              "n": g.n_nodes, "edges": edges})
            else:
                bound = sig.bind(*args, **kwargs).arguments
                pairs.append({"base": index[id(bound["g"])],
                              "mode": "random" if short == "rewire_random"
                              else "degree-preserving",
                              "n_rewirings": bound["n_rewirings"],
                              "n": g.n_nodes, "edges": edges})
            return g
        return record

    names = {"ensembles.erdos_renyi", "ensembles.barabasi_albert",
             "ensembles.rewire_random", "ensembles.rewire_degree_preserving"}
    with tracing.patched(make, only=names):
        yield


def _repeat_until(deadline_s: float, step) -> None:
    """Call step() at least once, stopping at the run boundary nearest the
    deadline."""
    start = time.perf_counter()
    while True:
        wall = step()
        if time.perf_counter() - start + wall / 2 >= deadline_s:
            return


def traced_loop(runner: Runner, seconds: float, spans_path: Path, run_prefix: str) -> dict:
    """Alternate untraced and traced runs; return the per-layer metrics."""
    layer_runs: list[dict] = []

    def pair() -> float:
        plain = runner.run("untraced")["wall"]
        tracer = tracing.Tracer(f"{run_prefix}-{len(layer_runs)}")
        with tracing.patched(tracer.wrap):
            traced = runner.run("traced")["wall"]
        layer_runs.append(tracing.layer_metrics(tracer))
        tracer.write(spans_path)
        return plain + traced

    spans_path.unlink(missing_ok=True)
    _repeat_until(seconds, pair)
    peaks: list[float] = []
    with tracing.parse_alloc_probe(peaks):
        runner.run("alloc")

    walls = {k: [r["wall"] for r in runner.runs if r["kind"] == k]
             for k in ("untraced", "traced")}
    metrics, repeat = {}, True
    for key in layer_runs[0]:
        values = [m[key] for m in layer_runs]
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(values)
        else:
            repeat &= len(set(values)) == 1
            metrics[key] = values[0]
    metrics["graph.parse_edge_list.peak_alloc_mb"] = max(peaks, default=0.0)
    metrics["cli.output_bytes"] = len(runner.outputs[0].encode("utf-8"))
    metrics["proc.cpu_s"] = statistics.median(
        r["cpu"] for r in runner.runs if r["kind"] == "untraced")
    metrics["trace.overhead_s"] = (statistics.median(walls["traced"])
                                   - statistics.median(walls["untraced"]))
    return {"layers": metrics, "counts_repeat": repeat}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    import netportrait
    import netportrait.cli
    src = Path(spec["src"]).resolve()
    if src not in Path(netportrait.__file__).resolve().parents:
        raise SystemExit(f"netportrait imported from {netportrait.__file__}, not {src}")

    runner = Runner(netportrait.cli, spec["argv"])
    captured: dict = {}
    if spec["capture"]:
        with capture_graphs(captured):
            runner.run("warmup")
    else:
        runner.run("warmup")

    result: dict = {}
    if spec["trace"]:
        result.update(traced_loop(runner, spec["seconds"], Path(spec["spans"]),
                                  spec["run_id"]))
    else:
        _repeat_until(spec["seconds"], lambda: runner.run("timed")["wall"])
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for graphs in captured.values():
        for g in graphs:
            g["edges"] = g["edges"].tolist()
    result.update(runs=runner.runs, outputs=runner.outputs, errors=runner.errors,
                  captured=captured)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
