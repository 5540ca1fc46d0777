"""``peot sweep`` writes strict JSON: a point whose training raised stores
null, not the bare ``NaN`` that strict parsers reject."""

import contextlib
import csv
import io
import json

import numpy as np
import pytest

from peot.cli import main
from peot.evaluation import SweepPoint


def strict_loads(text):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    out = tmp_path_factory.mktemp("sweep")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--task", "seizure", "--n-windows", "200",
                     "--out", str(data), "--seed", "1"]) == 0
        assert main(["sweep", "--dataset", str(data / "dataset.json"),
                     "--lambdas", "0,1e9", "--depths", "2", "--k", "2",
                     "--epochs", "20", "--warmup-epochs", "5", "--out", str(out)]) == 0
    return out


def test_a_diverged_point_is_stored_as_null(swept):
    points = strict_loads((swept / "sweep.json").read_text())["points"]
    assert [p["lambda"] for p in points] == [0.0, 1e9]
    ok, failed = points
    assert ok["error"] is None and 0.0 <= ok["f1_mean"] <= 1.0
    assert np.isfinite([ok["f1_std"], ok["power_mean"]]).all()
    assert "diverged" in failed["error"]
    assert (failed["f1_mean"], failed["f1_std"], failed["power_mean"]) == (None, None, None)
    assert failed["latency"] == 2


def test_the_csv_keeps_only_the_trained_point(swept):
    rows = list(csv.reader(io.StringIO((swept / "sweep.csv").read_text())))
    assert rows[0] == ["lambda", "depth", "fold", "f1", "power", "latency"]
    assert {row[0] for row in rows[1:]} == {"0.0"} and len(rows) == 3


def test_the_point_keeps_nan_in_its_fields():
    point = SweepPoint(1e9, 2, np.nan, np.nan, np.nan, 2, error="diverged")
    assert np.isnan(point.f1_mean) and np.isnan(point.power_mean)
    doc = point.to_doc()
    assert (doc["f1_mean"], doc["f1_std"], doc["power_mean"]) == (None, None, None)
    assert strict_loads(json.dumps(doc)) == doc
    finite = SweepPoint(0.0, 2, 0.5, 0.25, 3.0, 2).to_doc()
    assert (finite["f1_mean"], finite["f1_std"], finite["power_mean"]) == (0.5, 0.25, 3.0)
