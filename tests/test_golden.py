"""Byte-equality of experiment outputs against recorded golden reports.

Each directory under ``tests/golden`` holds a ``config.json``, the
``report.json`` it produced, and the PR-curve CSVs to compare. Every config is
run with ``--seed 9``, which only the configs without a ``seed`` key use. The
csv configs name ``data.csv`` relative to ``tests/golden``.
"""

from pathlib import Path

import pytest

from symrank.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").exists())


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, tmp_path, monkeypatch):
    case = GOLDEN / name
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(case / "config.json"),
                 "--seed", "9", "--out-dir", str(out)]) == 0
    expected = [case / "report.json", *sorted(case.glob("pr_*.csv"))]
    for path in expected:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name

