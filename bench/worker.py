"""One workload in one fresh process; started by run.py, never by hand.

Modes:
  setup   build the workload, report the moment the first query would
          start, and exit (run.py times several set-ups this way);
  timed   closed loop with one client for --seconds: the next query starts
          when the previous one has returned and been checked;
  pass    exactly one pass over the workload's queries, optionally traced,
          so work counts repeat exactly.

Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _import_disto():
    """Import disto from this checkout's src/ only."""
    sys.path.insert(0, str(ROOT / "src"))
    import disto
    if not Path(disto.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"disto imported from {disto.__file__}, not from "
                 f"{ROOT / 'src'}")


class _Corrupted:
    """Stands in for an expected answer; equal to nothing."""

    def __eq__(self, other):
        return False

    def __getitem__(self, key):
        raise KeyError(key)


def tail_percentile(n: int, preferred: float) -> float:
    """The workload's tail percentile, the highest with at least ten queries
    beyond it in a run of run_seconds, fixed so that a run's query count
    never moves it; lower only where ``n`` queries leave fewer than ten
    beyond it (tiny and short runs)."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if p <= preferred and n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def _check(q) -> bool:
    try:
        return bool(q.same(q.result, q.expected_value()))
    except Exception:
        return False


SEGMENT_S = 0.5
PROBE_EVERY_S = 0.05
PROBES_AROUND_SETUP = 3
# probe_ms() on the reference machine (2 cores, Python 3.11.7) in its
# faster state
PROBE_REFERENCE_MS = 2.0


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def probe_ms() -> float:
    """Time of a fixed piece of pure-Python work that touches no disto code
    (calls, integer arithmetic, dicts, tuples, frozensets, JSON), with the
    collector off.  Other tenants of a shared machine slow everything down,
    by more than a factor of two and from one second to the next; the probe
    measures by how much."""
    gc.disable()
    try:
        t = time.perf_counter()
        _fib(16)
        d = {}
        for i in range(2000):
            d[(i, str(i))] = frozenset((i, i + 1))
        json.loads(json.dumps([list(k) for k in d]))
        return (time.perf_counter() - t) * 1000.0
    finally:
        gc.enable()


def run_queries(queries, deadline: float | None, tracer=None) -> dict:
    """Run queries until the iterator ends or, past ``deadline``, a cycle
    ends.  Oracle checks run between queries and are timed apart.  A timed
    run also runs the probe between queries, once PROBE_EVERY_S has passed
    since the last one, and groups its probes by segments of at least
    SEGMENT_S."""
    latencies, segment_of, kinds, failed, check_s = [], [], [], 0, 0.0
    probes, seg_probes, probe_s = [], [], 0.0
    start = seg_start = last_probe = time.perf_counter()
    for k, q in enumerate(queries):
        if tracer is not None:
            tracer.query = k
        t0 = time.perf_counter()
        try:
            q.result = q.run()
            raised = False
        except Exception:
            raised = True
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        segment_of.append(len(probes))
        kinds.append(q.kind)
        if tracer is not None:
            i = tracer.begin("bench.check")
            tracer.enabled = False
        ok = not raised and _check(q)
        if tracer is not None:
            tracer.enabled = True
            tracer.end(i)
        failed += not ok
        t2 = time.perf_counter()
        check_s += t2 - t1
        q.result = None
        if deadline is None:
            continue
        stop = q.ends_cycle and t2 >= deadline
        close = stop or t2 - seg_start >= SEGMENT_S
        if t2 - last_probe >= PROBE_EVERY_S or (close and not seg_probes):
            seg_probes.append(probe_ms())
            last_probe = time.perf_counter()
            probe_s += last_probe - t2
        if close:
            probes.append(seg_probes)
            seg_probes, seg_start = [], time.perf_counter()
        if stop:
            break
    return {"latencies": latencies, "segment_of": segment_of,
            "kinds": kinds, "failed": failed, "check_s": check_s,
            "probe_s": probe_s, "wall_s": time.perf_counter() - start,
            "probes": probes}


def summarize(res: dict, preferred_tail: float) -> dict:
    """End-to-end figures of a run, measured and scaled to the reference
    machine speed.  A segment's slowdown is the geometric mean of the
    probes taken in it over PROBE_REFERENCE_MS; each query's latency is
    divided by its segment's slowdown.  queries_per_s is the query count
    over the time spent in queries, so checking and probing never count."""
    slow = [statistics.geometric_mean(p) / PROBE_REFERENCE_MS
            for p in res["probes"]] or [1.0]
    lat = res["latencies"]
    scaled = sorted(t / slow[i] for t, i in zip(lat, res["segment_of"]))
    lat = sorted(lat)
    p_tail = tail_percentile(len(lat), preferred_tail)
    return {
        "queries_per_s": len(lat) / sum(scaled),
        "latency_p50_ms": percentile(scaled, 50.0) * 1000.0,
        "latency_tail_ms": percentile(scaled, p_tail) * 1000.0,
        "raw": {"queries_per_s": len(lat) / sum(lat),
                "latency_p50_ms": percentile(lat, 50.0) * 1000.0,
                "latency_tail_ms": percentile(lat, p_tail) * 1000.0},
        "tail_percentile": p_tail, "segments": len(res["probes"]),
        "probes": sum(len(p) for p in res["probes"]),
        "probe_ms": statistics.median(
            [x for p in res["probes"] for x in p] or [PROBE_REFERENCE_MS]),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "pass"],
                    required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="replace the first expected answer by a wrong one")
    args = ap.parse_args()

    if args.mode == "setup":
        # probes bracket the set-up; the first ones are not set-up time
        t = time.monotonic()
        probes = [probe_ms() for _ in range(PROBES_AROUND_SETUP)]
        probe_s = time.monotonic() - t
    _import_disto()
    import workloads
    from tracer import COUNT_METRICS, TIME_METRICS, Tracer, install

    OUT_DIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Verbs:
        work = cls(args.seed, args.tiny,
                   workdir=OUT_DIR / f"work-{os.getpid()}")
    else:
        work = cls(args.seed, args.tiny)
    try:
        t_ready = time.monotonic()
        if args.mode == "setup":
            probes += [probe_ms() for _ in range(PROBES_AROUND_SETUP)]
            print(json.dumps({"t_ready": t_ready, "probe_s": probe_s,
                              "probes": probes}))
            return 0
        passes = None if args.mode == "timed" else 1
        # peak RSS after set-up and one pass of every stream: a fixed
        # amount of work, however many passes the run goes on to make
        rss_kb = []
        queries = workloads.interleave(
            work.streams(), passes, lambda: rss_kb.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        if args.corrupt:
            queries = _corrupt_first(queries)
        tracer = None
        if args.traced:
            tracer = Tracer()
            install(tracer)
            tracer.enabled = True
        deadline = (time.perf_counter() + args.seconds
                    if args.mode == "timed" else None)
        res = run_queries(queries, deadline, tracer)
        rss_after_pass = bool(rss_kb)
        if not rss_after_pass:      # the run ended inside its first pass
            rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        rss_mb = rss_kb[0] / 1024.0
    finally:
        work.close()

    per_kind: dict[str, list[float]] = {}
    for kind, t in zip(res["kinds"], res["latencies"]):
        per_kind.setdefault(kind, []).append(t)
    out = {"t_ready": t_ready, "attempted": len(res["latencies"]),
           "failed": res["failed"], "wall_s": res["wall_s"],
           "check_s": res["check_s"], "probe_s": res["probe_s"],
           "peak_rss_mb": rss_mb, "rss_after_first_pass": rss_after_pass,
           **summarize(res, cls.TAIL_PERCENTILE),
           "per_kind": {k: {"queries": len(v),
                            "p50_ms": statistics.median(v) * 1000.0,
                            "max_ms": max(v) * 1000.0}
                        for k, v in sorted(per_kind.items())}}
    if tracer is not None:
        tracer.enabled = False
        self_s = tracer.self_times()
        layers = {metric: self_s.get(span, 0.0)
                  for span, metric in TIME_METRICS.items()}
        layers["bench.unattributed_s"] = res["wall_s"] - sum(self_s.values())
        layers.update({c: tracer.counts.get(c, 0) for c in COUNT_METRICS})
        out["layers"] = layers
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(out))
    return 0


def _corrupt_first(queries):
    for k, q in enumerate(queries):
        if k == 0:
            q.expected = _Corrupted()
        yield q


if __name__ == "__main__":
    sys.exit(main())
