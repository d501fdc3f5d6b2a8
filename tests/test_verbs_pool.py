"""The benchmark's ``verbs`` pool replayed through ``cli.main``: every entry
must give its stored answer, so a report regression fails here and not only
in ``bench/run.py``.  The pool and its checker are only read."""

import json
from pathlib import Path

from disto import cli

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_every_verbs_pool_entry_gives_its_expected_answer(
        capsys, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # verbs_pool imports oracles
    import verbs_pool
    pool = json.loads(verbs_pool.POOL_PATH.read_text())
    inputs = tmp_path / "in"
    inputs.mkdir()
    failed, runs = [], 0
    for verb, entries in sorted(pool.items()):
        for k, entry in enumerate(entries):
            argv, paths = verbs_pool.materialize(
                entry, inputs, f"{tmp_path}/{verb}-{k}-")
            code = cli.main(argv)
            report = json.loads(capsys.readouterr().out)
            report["exit"] = code
            runs += 1
            if not verbs_pool.check(verb, report, entry["expect"], paths):
                failed.append(f"{verb}[{k}]: {argv}")
    assert failed == []
    assert runs == sum(len(entries) for entries in pool.values()) > 0
