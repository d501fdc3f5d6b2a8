"""Self-test of the benchmark, at tiny sizes (about half a minute):

    python3 bench/selftest.py

- every workload runs, untraced and traced, and answers correctly;
- every metric named in BENCHMARK.json is reported, with its unit, and
  declares a direction;
- per-layer self times, bench.check_s and bench.unattributed_s add up to
  the traced wall time, and the work counts repeat exactly;
- a deliberately corrupted expected answer makes fail_share positive, so
  the checks really check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracer import COUNT_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """Run the benchmark; return its last output line and its report."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" /
                         f"report-{workload}-7-trace{trace}.json").read_text())
    return result, report


def check_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    names = [m["name"] for m in specs]
    assert sorted(result["metrics"]) == sorted(names), \
        set(result["metrics"]) ^ set(names)
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert m["better"] in ("higher", "lower"), m
        assert isinstance(got["value"], (int, float)), got


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        result, _ = bench(w, 0)
        check_metrics(result, SPEC["end_to_end"])
        assert result["correct"] and result["failed"] == 0, (w, result)

        result, report = bench(w, 1)
        check_metrics(result, SPEC["per_layer"])
        assert result["correct"], (w, result)
        layers = report["metrics"]
        times = sum(v for k, v in layers.items()
                    if report["units"][k] == "s")
        assert layers["bench.unattributed_s"] >= 0, layers
        assert abs(times - report["traced_wall_s"]) < 1e-6, \
            (times, report["traced_wall_s"])
        again, _ = bench(w, 1)
        for c in COUNT_METRICS:
            assert again["metrics"][c]["value"] == \
                result["metrics"][c]["value"], (w, c)

        result, report = bench(w, 0, "--corrupt")
        assert not result["correct"] and result["failed"] >= 1, (w, result)
        assert report["fail_share"] > 0, report
        print(f"ok {w}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
