"""bench.py's jobs, run in-process on small corpora under the session Ray."""

import pytest

import bench


def _schema_ok(res: dict) -> None:
    assert set(res) == {"reps", "min", "check"}
    assert len(res["reps"]) == 1 and res["min"] == res["reps"][0] > 0


@pytest.mark.parametrize("hashes", [False, True])
def test_kg_job(tmp_path, hashes):
    res = bench.kg(bench._pages(500, str(tmp_path)), str(tmp_path / "kg"), 1,
                   hashes=hashes)
    _schema_ok(res)
    if hashes:
        assert set(res["check"]) == {"edges", "nodes"}
        assert all(len(h) == 16 for h in res["check"].values())
    else:
        assert res["check"] > 0


def test_web_job(tmp_path):
    res = bench.web(bench._pages(500, str(tmp_path)), 1)
    _schema_ok(res)
    assert res["check"] == 500


def test_cur_job(tmp_path):
    res = bench.cur(bench._docs(2_000, str(tmp_path)), str(tmp_path / "cur"), 1)
    _schema_ok(res)
    assert 0 < res["check"] < 2_000  # the planted duplicates are dropped
