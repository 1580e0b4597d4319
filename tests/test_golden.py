"""Byte-equality of experiment outputs against recorded golden reports.

Each directory under ``tests/golden`` holds a ``config.json``, the
``report.json`` it produced, and the PR-curve CSVs to compare. Every config is
run with ``--seed 9``, which only the configs without a ``seed`` key use. The
csv configs name ``data.csv`` relative to ``tests/golden``. The
``gen-features`` outputs on ``data.csv`` are compared by their sha256.
"""

import hashlib
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



# gen-features options on data.csv, and the sha256 of features.csv and of
# manifest.json. The first drops columns for both reasons (q = 261).
GEN_FEATURES = {
    "bb-value-dedup": (
        ["--arch", "bb", "--binary=-,/", "--value-dedup"],
        "ae3631fd6ac9f90ad9b2098aa48d1861690df85424e8551b9c839dd92509be8b",
        "d56c73a749d0014dc29cf5c0fb4780a19bc99e23bf301c80688c13bcafb61990"),
    "ubu-exp": (
        ["--arch", "ubu", "--unary", "id,exp", "--binary=-,/"],
        "d020e5ce44a1971b645ff78509c162a3a89d6528eccc2db70be891e589ad0730",
        "47b6482ed4bce6418e15bce7eb6a19523f1652bbe21c79a43a5d1fa45fe5f2a7"),
}


@pytest.mark.parametrize("options, features, manifest", GEN_FEATURES.values(),
                         ids=GEN_FEATURES.keys())
def test_gen_features_matches_golden(options, features, manifest, tmp_path):
    out = tmp_path / "out"
    assert main(["gen-features", "--input", str(GOLDEN / "data.csv"), "--response", "y",
                 *options, "--out-dir", str(out)]) == 0
    for name, digest in (("features.csv", features), ("manifest.json", manifest)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
