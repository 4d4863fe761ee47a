"""End-to-end curation flagship: quality gate → exact dedup → near-dup
keep-best → span rewrite → resumable partitioned write."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ner_extractor_ray.pipelines.curation import run_curation

BASE = "the quick brown fox jumps over the lazy dog today"


def _docs_table() -> pa.Table:
    shared = "alpha beta gamma delta epsilon zeta eta theta"  # 8-token span
    rows = [
        (1, BASE),                          # near-dup comp {1,2,3}
        (2, BASE + " tonight"),             # longest → keeper
        (3, BASE),                          # dropped (near-dup of 2)
        (4, "completely different content about spark and ray data"),
        (5, "completely different content about spark and ray data"),  # exact dup of 4 → dropped
        (6, "short"),                       # quality: < 5 tokens → dropped
        (7, f"unique seven document text {shared} tail words here"),
        (8, f"other eight document body {shared} closing remarks now"),
        (9, "a lone unique document with nothing shared at all"),
    ]
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })


def test_run_curation_stages_and_rewrite(tmp_path):
    src = tmp_path / "docs.parquet"
    pq.write_table(_docs_table(), str(src))
    docs = ray.data.read_parquet(str(src))
    out = str(tmp_path / "cur")

    res = run_curation(docs, out_dir=out, n_partitions=4)
    st = res["stats"]
    assert st["n_input"] == 9
    assert st["n_quality"] == 8            # doc 6 dropped (< 5 tokens)
    assert st["n_exact"] == 6              # exact dups {1,3}→1, {4,5}→4
    assert st["n_neardup"] == 5            # near-dup comp {1,2}: 2 (longest) keeps
    rows = {r["doc_id"]: r for r in res["curated"].take_all()}
    assert set(rows) == {2, 4, 7, 8, 9}
    # the shared 8-gram span is removed from BOTH holders
    for d in (7, 8):
        assert "alpha" not in rows[d]["kept_text"]
        assert rows[d]["n_removed"] == 8
    # untouched docs keep all tokens
    assert rows[9]["n_removed"] == 0
    assert rows[9]["n_tokens"] == len(rows[9]["kept_text"].split())
    assert os.path.exists(os.path.join(out, "curated", "_TABLE_MANIFEST.json"))

    # resume: a completed table short-circuits
    res2 = run_curation(ray.data.read_parquet(str(src)), out_dir=out, n_partitions=4)
    assert res2["stats"].get("resumed") is True
    rows2 = {r["doc_id"]: r["kept_text"] for r in res2["curated"].take_all()}
    assert rows2 == {k: v["kept_text"] for k, v in rows.items()}


def test_run_curation_no_outdir_deterministic(tmp_path):
    src = tmp_path / "docs.parquet"
    pq.write_table(_docs_table(), str(src))

    def run():
        res = run_curation(ray.data.read_parquet(str(src)))
        return sorted(
            (r["doc_id"], r["n_tokens"], r["n_removed"], r["kept_text"])
            for r in res["curated"].take_all()
        )

    assert run() == run()


def test_run_curation_pii_scrub(tmp_path):
    # redact_pii=True must equal redact() applied to the default output's
    # kept_text per doc — same survivors, same counts, scrubbed text only.
    rows = [
        (1, "reach me at a@b.com or 555-123-4567 please do write soon"),
        (2, "server logs show 10.0.0.1 hitting the endpoint all night"),
        (3, "a clean document with no contact information inside it"),
    ]
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }), str(src))
    docs = ray.data.read_parquet(str(src))

    plain = (run_curation(docs, out_dir=None)["curated"].to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    scrub = (run_curation(docs, out_dir=None, redact_pii=True)["curated"]
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # same survivors (dedup decisions precede the scrub)
    assert scrub["doc_id"].tolist() == plain["doc_id"].tolist()
    # raw PII values never reach kept_text; placeholders surface as
    # (lowercased) tokens after the span rewriter's word tokenization
    tk0, tk1 = (set(t.split()) for t in scrub["kept_text"].tolist()[:2])
    t2 = scrub["kept_text"].tolist()[2]
    assert "email" in tk0 and "phone" in tk0
    assert not {"com", "4567", "555", "123"} & tk0
    assert "ip" in tk1 and not {"10", "0", "1"} & tk1
    assert t2 == plain.loc[2, "kept_text"]     # clean doc untouched
    # plain output DOES leak the tokenized PII — the contrast the flag fixes
    assert "4567" in plain.loc[0, "kept_text"]


def test_run_curation_all_docs_gated(tmp_path):
    """Every doc fails the quality gate: the empty survivor tables have no
    schema, and the job still completes with an empty curated table."""
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                             "text": pa.array(["tiny", "short"], pa.string())}), str(src))
    res = run_curation(ray.data.read_parquet(str(src)), out_dir=str(tmp_path / "cur"),
                       n_partitions=4)
    assert res["stats"]["n_quality"] == 0 and res["stats"]["n_curated"] == 0


def test_curated_files_carry_no_pandas_metadata(tmp_path):
    """The curated table is built from Arrow batches end to end: no file
    carries the ``pandas`` schema metadata, whose dict values Ray cannot
    hash when it reads the table back (a warning per read)."""
    src = tmp_path / "docs.parquet"
    pq.write_table(_docs_table(), str(src))
    out = str(tmp_path / "cur")
    run_curation(ray.data.read_parquet(str(src)), out_dir=out, n_partitions=4)
    files = [os.path.join(d, f) for d, _, fs in os.walk(os.path.join(out, "curated"))
             for f in fs if f.endswith(".parquet")]
    assert files
    for f in files:
        assert b"pandas" not in (pq.read_schema(f).metadata or {})


# Ray Data executions of one run_curation(out_dir=...) on _docs_table():
# s1, s2, the band rows, LSH candidates and their texts, 5 in connected
# components, 2 keep-best join sides, the survivor ids and rows, and the
# three concurrent table writes.
CURATION_EXECUTIONS = 12


def test_run_curation_execution_count(tmp_path, monkeypatch):
    """Pins the number of Ray Data executions a curation job launches, so a
    change that adds one (a stray count(), a re-executed lineage) fails."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    real = StreamingExecutor.execute

    def spy(self, *a, **k):
        calls.append(1)
        return real(self, *a, **k)

    src = tmp_path / "docs.parquet"
    pq.write_table(_docs_table(), str(src))
    docs = ray.data.read_parquet(str(src))
    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    run_curation(docs, out_dir=str(tmp_path / "cur"), n_partitions=4)
    assert len(calls) == CURATION_EXECUTIONS
