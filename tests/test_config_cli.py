"""Config surface, CLI entry (S5/M16/§2.10 parity)."""

import json
import subprocess
import sys

import pytest

from ner_extractor_ray.config import PipelineConfig


def test_defaults_validate():
    cfg = PipelineConfig.load()
    assert cfg.tagger == "deterministic" and cfg.max_seq_length == 192


def test_yaml_and_overrides(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("batch_size: 512\nlsh_threshold: 0.7\n")
    cfg = PipelineConfig.load(str(p), overrides={"n_partitions": 4})
    assert cfg.batch_size == 512 and cfg.lsh_threshold == 0.7 and cfg.n_partitions == 4


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("no_such_key: 1\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.load(str(p))


def test_reserved_toggle_fails_fast():
    with pytest.raises(NotImplementedError):
        PipelineConfig(use_char_features=True).validate()


def test_hf_requires_checkpoint():
    with pytest.raises(ValueError, match="hf_checkpoint"):
        PipelineConfig(tagger="hf").validate()


def test_cli_rejects_unhonorable_keys(tmp_path):
    """Config keys the kg command cannot honor must fail fast, not be
    silently ignored (ADVICE round 1)."""
    from ner_extractor_ray.cli import cmd_kg

    class A:
        pages, out = str(tmp_path), str(tmp_path / "o")

    for key, val in [("augment_rate", 0.5), ("label_all_tokens", True)]:
        p = tmp_path / f"{key}.yaml"
        p.write_text(f"{key}: {val}\n")
        A.config = str(p)
        with pytest.raises(NotImplementedError, match=key):
            cmd_kg(A)


def test_kg_threads_config_knobs(tmp_path, ray_session):
    """lang_filter and lsh_threshold must actually change pipeline behavior
    when passed through run_kg (they were accepted-but-ignored before)."""
    from ner_extractor_ray.pipelines.kg import pages_dataset, run_kg
    from ner_extractor_ray.sources.pages import write_pages

    pdir = str(tmp_path / "pages")
    write_pages(pdir, 100, n_files=2)
    base = run_kg(pages_dataset(pdir), out_dir=None, n_partitions=4)
    # no language filter → non-en (filler) pages join the corpus → more
    # tagged sentences, but no new mentions (de filler has no entities)
    nofilt = run_kg(pages_dataset(pdir), out_dir=None, n_partitions=4,
                    lang_filter=None)
    assert nofilt["tagged"].count() > base["tagged"].count()
    # an impossible LSH threshold → no surface merging → ≥ as many entities
    strict = run_kg(pages_dataset(pdir), out_dir=None, n_partitions=4,
                    lsh_threshold=1.01)
    assert strict["nodes"].count() >= base["nodes"].count()


def test_cli_gen(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "ner_extractor_ray.cli", "gen",
         "--out", str(tmp_path / "pages"), "--n-pages", "20", "--n-files", "2"],
        capture_output=True, text=True, check=True, cwd="/root/repo",
    )
    info = json.loads(out.stdout.strip().splitlines()[-1])
    assert info["n_pages"] == 20
    assert (tmp_path / "pages" / "gold_triples.parquet").exists()


def test_cli_linkgraph_build_and_update(tmp_path):
    pages = str(tmp_path / "pages")
    subprocess.run(
        [sys.executable, "-m", "ner_extractor_ray.cli", "gen",
         "--out", pages, "--n-pages", "40", "--n-files", "2"],
        capture_output=True, text=True, check=True, cwd="/root/repo",
    )
    g1 = str(tmp_path / "g1")
    out = subprocess.run(
        [sys.executable, "-m", "ner_extractor_ray.cli", "linkgraph",
         "--pages", pages, "--out", g1, "--n-partitions", "2"],
        capture_output=True, text=True, check=True, cwd="/root/repo",
    )
    info = json.loads(out.stdout.strip().splitlines()[-1])
    assert info["rows"] > 0 and info["partitions"] >= 1
    assert (tmp_path / "g1" / "host_graph" / "_TABLE_MANIFEST.json").exists()

    g2 = str(tmp_path / "g2")
    out = subprocess.run(
        [sys.executable, "-m", "ner_extractor_ray.cli", "linkgraph",
         "--pages", pages, "--out", g2, "--update-from", g1,
         "--n-partitions", "2"],
        capture_output=True, text=True, check=True, cwd="/root/repo",
    )
    info2 = json.loads(out.stdout.strip().splitlines()[-1])
    # merging the same crawl again keeps the distinct-pair row count
    assert info2["rows"] == info["rows"]


def test_cli_curate_and_update(tmp_path):
    """``cli curate`` builds a snapshot, ``cli curate-update`` merges a new
    batch onto it (the frozen-wins fixture of tests/test_curation_update.py)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    def write(name, rows):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                                 "text": pa.array([r[1] for r in rows], pa.string())}),
                       str(d / "documents.parquet"))
        return str(d)

    base = "the quick brown fox jumps over the lazy dog today"
    novel = "entirely novel prose about distributed data engines"
    old = write("old", [(1, base),
                        (2, "completely different content about spark and ray data")])
    new = write("new", [(10, base), (11, base + " tonight"), (12, novel),
                        (13, novel + " now"), (14, "tiny")])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def cli(*args):
        out = subprocess.run([sys.executable, "-m", "ner_extractor_ray.cli", *args],
                             capture_output=True, text=True, check=True, cwd=root)
        return json.loads(out.stdout.strip().splitlines()[-1])

    snap0, snap1 = str(tmp_path / "snap0"), str(tmp_path / "snap1")
    info = cli("curate", "--docs", old, "--out", snap0, "--n-partitions", "2")
    assert info["out_dir"] == snap0
    assert set(info["stats"]) == {"n_input", "n_quality", "n_exact", "n_neardup",
                                  "n_curated"}
    assert info["stats"]["n_curated"] == 2
    info = cli("curate-update", "--prev", snap0, "--new-docs", new,
               "--prev-docs", old, "--out", snap1, "--n-partitions", "2")
    assert info["stats"] == {"n_new_input": 5, "n_after_exact": 3, "n_new_kept": 1}

    from ner_extractor_ray.pipelines.curation_update import read_curated_chain

    assert sorted(r["doc_id"] for r in read_curated_chain(snap1).take_all()) == [1, 2, 13]


def test_cli_query_list(capsys):
    from ner_extractor_ray.cli import main

    assert main(["query", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = {l.split("\t")[0] for l in lines}
    assert {"pricing_summary", "minhash_neardup", "kg_edges"} <= names
    # oracle/rows-only tags reflect oracle_sql()
    tagged = dict(l.split("\t") for l in lines)
    assert tagged["pricing_summary"] == "oracle"
    assert tagged["kg_edges"] == "rows-only"


def test_cli_query_runs_and_writes(tmp_path, ray_session, capsys):
    from ner_extractor_ray.cli import main

    out = str(tmp_path / "q")
    assert main(["query", "distinct_langs",
                 "--sf-dir", "/root/testdata/sf0.001", "--out", out]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["rows"] >= 1
    import pyarrow.parquet as pq
    import glob as _glob

    files = _glob.glob(out + "/*.parquet")
    assert files
    total = sum(pq.read_table(f).num_rows for f in files)
    assert total == info["rows"]


def test_cli_query_unknown_name(capsys):
    from ner_extractor_ray.cli import main

    assert main(["query", "no_such_query"]) == 2
