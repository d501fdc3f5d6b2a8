"""disto benchmark: end-to-end metrics per workload, per-layer metrics from
a traced run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload

Each workload runs in fresh child processes (bench/worker.py) with one
thread.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
fixed pass untraced and one traced and prints the per-layer metrics.  The
last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A full report, with the machine and the source it measured, is written to
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_REFERENCE_MS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep", "long-runs", "verbs")
SETUP_SAMPLES = 9          # set-ups timed per run; the median is reported
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start a worker, wait for it, return (start time, its JSON result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"worker {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited "
                          f"{proc.returncode}:\n{err.strip()}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    src = ROOT / "src" / "disto"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": git_commit(),
            "src_disto_lines": sum(len(p.read_text().splitlines())
                                   for p in sorted(src.glob("*.py")))}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_end_to_end(workload: str, seed: int, seconds: float,
                       extra: list[str]) -> dict:
    """Times and rates scaled to the reference machine speed (see
    worker.summarize); the measured values are kept as ``raw_metrics``.
    Each set-up time is divided by the slowdown its child's probes, before
    and after the set-up, measured."""
    base = ["--workload", workload, "--seed", str(seed), *extra]
    setups_raw, setups = [], []
    for _ in range(SETUP_SAMPLES):
        t_spawn, res = run_child(base + ["--mode", "setup"], CHILD_TIMEOUT_S)
        setups_raw.append(res["t_ready"] - t_spawn - res["probe_s"])
        setups.append(setups_raw[-1] * PROBE_REFERENCE_MS /
                      statistics.geometric_mean(res["probes"]))
    _, res = run_child(base + ["--mode", "timed", "--seconds", str(seconds)],
                       CHILD_TIMEOUT_S)
    names = ("queries_per_s", "latency_p50_ms", "latency_tail_ms")
    metrics = {"setup_s": statistics.median(setups),
               **{k: res[k] for k in names},
               "peak_rss_mb": res["peak_rss_mb"]}
    raw = {"setup_s": statistics.median(setups_raw), **res["raw"],
           "peak_rss_mb": res["peak_rss_mb"]}
    return {"metrics": metrics, "raw_metrics": raw,
            "probe_ms": res["probe_ms"], "attempted": res["attempted"],
            "failed": res["failed"],
            "fail_share": res["failed"] / res["attempted"],
            "tail_percentile": res["tail_percentile"],
            "tail_samples": res["attempted"], "setup_samples_s": setups_raw,
            "timed_wall_s": res["wall_s"], "check_s": res["check_s"],
            "probe_s": res["probe_s"], "segments": res["segments"],
            "probes": res["probes"],
            "rss_after_first_pass": res["rss_after_first_pass"],
            "per_kind": res["per_kind"]}


def measure_layers(workload: str, seed: int, extra: list[str]) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--mode", "pass",
            *extra]
    _, plain = run_child(base, CHILD_TIMEOUT_S)
    _, traced = run_child(base + ["--traced"], CHILD_TIMEOUT_S)
    layers = dict(traced["layers"])
    enum_s = layers["graphs.enum_s"]
    sync_s = layers["automata.sync_s"]
    layers["graphs.enum_per_s"] = (layers["graphs.enum_digraphs"] / enum_s
                                   if enum_s else 0.0)
    layers["automata.sync_node_steps_per_s"] = (
        layers["automata.sync_node_steps"] / sync_s if sync_s else 0.0)
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return {"metrics": layers, "attempted": traced["attempted"],
            "failed": traced["failed"],
            "fail_share": traced["failed"] / traced["attempted"],
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": plain["wall_s"],
            "spans_file": traced["spans_file"]}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "tiling.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            extra: list[str]) -> dict:
    if trace:
        res = measure_layers(workload, seed, extra)
        units = {k: layer_unit(k) for k in res["metrics"]}
    else:
        res = measure_end_to_end(workload, seed, seconds, extra)
        units = END_TO_END_UNITS
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(), **res,
              "units": units}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"report-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"commit={env['commit']} src_disto_lines={env['src_disto_lines']}")
    for name, value in report["metrics"].items():
        print(f"{name:34s} {value:14.6g} {report['units'][name]}")
    print(f"{'fail_share':34s} {report['fail_share']:14.6g} ratio")
    if not report["trace"]:
        print(f"latency_tail_ms is p{report['tail_percentile']:g} of "
              f"{report['tail_samples']} queries")
        print(f"speed probe median {report['probe_ms']:.3f} ms against "
              f"{PROBE_REFERENCE_MS} ms on the reference machine; times and "
              f"rates above are scaled by the probes taken next to them, raw "
              f"values are in the report")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one expected answer, for the self-test")
    args = ap.parse_args()
    extra = (["--tiny"] if args.tiny else []) + \
        (["--corrupt"] if args.corrupt else [])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_one(w, args.seed, args.seconds, bool(args.trace), extra)
                   for w in names]
    except ChildFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    # with several workloads, each metric name carries its workload
    prefix = (lambda r: f"{r['workload']}.") if len(reports) > 1 else \
        (lambda r: "")
    result = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {prefix(r) + name: {"value": value,
                                       "unit": r["units"][name]}
                    for r in reports for name, value in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
