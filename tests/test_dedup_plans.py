"""Near-dup keep/drop resolution + canonicalization physical-plan parity."""

import pyarrow as pa
import ray.data

from ner_extractor_ray.functions.dedup import (
    exact_dedup_groups,
    lsh_near_dup_pairs,
    near_dup_keep_ids,
)
from ner_extractor_ray.stages.canonicalize import canonicalize_nodes


def test_near_dup_keep_ids_components():
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog today"},
            {"doc_id": 2, "text": "the quick brown fox jumps over the lazy dog today"},
            {"doc_id": 3, "text": "the quick brown fox jumps over the lazy dog tonight"},
            {"doc_id": 4, "text": "completely different content about spark and ray data"},
        ]
    )
    pairs = lsh_near_dup_pairs(docs, "text", "doc_id", shingle="word3", threshold=0.6)
    keep = {r["doc_id"]: r["keep_id"] for r in near_dup_keep_ids(pairs, docs, "doc_id").take_all()}
    assert keep[1] == 1 and keep[2] == 1  # exact dups share representative
    assert keep[3] == 1                   # near-dup joins the component
    assert keep[4] == 4                   # unrelated doc keeps itself


def test_neardup_keep_best_argmax_and_ties(tmp_path):
    """Quality-weighted keeper: max token count wins within a component;
    equal counts tie-break to min doc_id; singletons keep themselves."""
    import pyarrow.parquet as pq

    base = "the quick brown fox jumps over the lazy dog today"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                [
                    base,                      # comp {1,2,3}: 10 tokens
                    base + " tonight",         # 11 tokens, J=8/9≥0.8 — keeper
                    base,                      # 10 tokens
                    "completely different content about spark and ray data",
                    "completely different content about spark and ray data",
                    # 4+5 are exact dups with EQUAL counts → min id (4) keeps
                ]
            ),
        }
    )
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    from ner_extractor_ray.pipelines.queries import q_neardup_keep_best

    keep = {r["doc_id"]: r["keep_id"] for r in q_neardup_keep_best(str(d)).take_all()}
    assert keep[1] == 2 and keep[2] == 2 and keep[3] == 2  # longest version wins
    assert keep[4] == 4 and keep[5] == 4                   # tie → min doc_id

    # frozen docs (an already-curated corpus) outrank every new doc: frozen
    # 1 (10 tokens) wins over the longer new 2 and 3; frozen 6, in no pair,
    # does not appear; frozen docs are never in the output
    from ner_extractor_ray.functions.dedup import near_dup_keep_best_ids

    new = ray.data.from_arrow(t.slice(1))  # docs 2..5
    pairs = ray.data.from_items([{"id_a": 1, "id_b": 2}, {"id_a": 1, "id_b": 3},
                                 {"id_a": 2, "id_b": 3}, {"id_a": 4, "id_b": 5}])
    frozen = ray.data.from_items([{"doc_id": 1}, {"doc_id": 6}])
    keep = {r["doc_id"]: r["keep_id"] for r in near_dup_keep_best_ids(
        pairs, new, "doc_id", "text", frozen=frozen).take_all()}
    assert keep == {2: 1, 3: 1, 4: 4, 5: 4}


def test_lsh_pairs_match_driver_oracle():
    """The narrow-shuffle plan (band rows = (bucket, id); texts re-joined for
    candidates only) must produce the IDENTICAL verified pair set as a
    single-process replication of the text-carrying plan: same bands, same
    bucket cap/chaining, same exact-Jaccard verify."""
    from ner_extractor_ray.functions.dedup import SHINGLERS
    from ner_extractor_ray.functions.textfns import (
        band_buckets,
        jaccard,
        minhash_signature_sql,
    )

    docs_dir = "/root/testdata/sf0.01/documents.parquet"
    ds = ray.data.read_parquet(docs_dir, columns=["doc_id", "text"])
    rows = ds.take_all()

    shingler = SHINGLERS["word3"]
    threshold, n_bands, num_perm, bucket_cap = 0.8, 16, 64, 64
    buckets: dict[int, list[int]] = {}
    texts = {}
    for r in rows:
        texts[r["doc_id"]] = r["text"]
        sig = minhash_signature_sql(shingler(r["text"] or ""), num_perm)
        for bk in band_buckets(sig, n_bands):
            buckets.setdefault(bk, []).append(r["doc_id"])
    expected = set()
    for members in buckets.values():
        ids = sorted(set(members))
        n = len(ids)
        if n < 2:
            continue
        prs = (
            [(i, j) for i in range(n) for j in range(i + 1, n)]
            if n <= bucket_cap
            else [(i, i + 1) for i in range(n - 1)]
        )
        for i, j in prs:
            jv = jaccard(set(shingler(texts[ids[i]] or "")), set(shingler(texts[ids[j]] or "")))
            if jv >= threshold:
                expected.add((ids[i], ids[j]))

    got = {
        (r["id_a"], r["id_b"])
        for r in lsh_near_dup_pairs(
            ds, "text", "doc_id", shingle="word3", threshold=threshold
        ).take_all()
    }
    assert got == expected
    assert expected  # the fixture must actually contain near-dups


def test_lsh_pairs_broadcast_and_join_plans_agree():
    """broadcast_limit=0 forces the bloom + hash-join text-fetch plan (the
    huge-candidate-set path); its verified pair set must equal the broadcast
    fast path's — also with a frozen corpus folded in (prior_bands /
    prior_docs), where the result is the unfolded run's pairs minus those
    joining two frozen docs."""
    from ner_extractor_ray.functions.dedup import band_rows

    ds = ray.data.read_parquet("/root/testdata/sf0.01/documents.parquet",
                               columns=["doc_id", "text"])

    def plans(docs, **kw):
        return [{(r["id_a"], r["id_b"], r["jaccard"])
                 for r in lsh_near_dup_pairs(docs, "text", "doc_id", broadcast_limit=bl,
                                             **kw).take_all()}
                for bl in (100_000, 0)]

    fast, joined = plans(ds)
    assert fast == joined
    assert fast

    # frozen = even ids, among them two near-dups (1000, 1002) that share
    # buckets with each other and with the new doc 1001
    base = "the quick brown fox jumps over the lazy dog today"
    planted = ray.data.from_items([{"doc_id": 1000, "text": base},
                                   {"doc_id": 1001, "text": "and " + base},
                                   {"doc_id": 1002, "text": base + " tonight"}])
    all_docs = ds.union(planted).materialize()
    frozen_docs = all_docs.filter(lambda r: r["doc_id"] % 2 == 0).materialize()
    new_docs = all_docs.filter(lambda r: r["doc_id"] % 2 == 1).materialize()
    frozen_ids = {r["doc_id"] for r in frozen_docs.take_all()}
    prior_bands = frozen_docs.map_batches(
        lambda t: band_rows(t, "doc_id", "text"), batch_format="pyarrow")
    full, _ = plans(all_docs)
    fold_fast, fold_joined = plans(new_docs, prior_bands=prior_bands,
                                   prior_docs=frozen_docs)
    assert fold_fast == fold_joined
    assert fold_fast == {p for p in full
                         if not (p[0] in frozen_ids and p[1] in frozen_ids)}
    pairs = {(a, b) for a, b, _ in fold_fast}
    assert {(1000, 1001), (1001, 1002)} <= pairs
    assert (1000, 1002) in {(a, b) for a, b, _ in full}
    assert (1000, 1002) not in pairs
    assert any(a in frozen_ids for a, _ in pairs) and any(
        a not in frozen_ids and b not in frozen_ids for a, b in pairs)


def test_lsh_pairs_precomputed_bands_equal_text_path():
    """lsh_near_dup_pairs(bands=) with the band rows a caller already
    computed equals the path that computes them from the text, under the
    broadcast and the hash-join text-fetch plans."""
    from ner_extractor_ray.functions.dedup import band_rows

    ds = ray.data.read_parquet("/root/testdata/sf0.01/documents.parquet",
                               columns=["doc_id", "text"]).materialize()
    bands = ds.map_batches(lambda t: band_rows(t, "doc_id", "text"),
                           batch_format="pyarrow").materialize()
    for bl in (100_000, 0):
        got = [{(r["id_a"], r["id_b"], r["jaccard_ppm"])
                for r in lsh_near_dup_pairs(ds, "text", "doc_id", broadcast_limit=bl,
                                            bands=b).take_all()}
               for b in (None, bands)]
        assert got[0] == got[1] and got[0]


def test_exact_dedup_one_exchange_equals_groups_semi_join():
    """exact_dedup_survivors (min-id row per content md5, one exchange)
    equals exact_dedup_groups' keep ids semi-joined back, and so do the
    quality/exact stage counts, on a multi-block input with duplicates
    split across blocks, null and empty texts (one md5) and one group that
    is all duplicates."""
    from ner_extractor_ray.functions.dedup import exact_dedup_survivors
    from ner_extractor_ray.pipelines.curation import quality_exact_dedup
    from ner_extractor_ray.stages.joins import hash_join

    texts = {}
    for i in range(60):
        texts[i] = f"doc family {i % 7} some shared words here" if i % 3 else f"unique {i}"
    texts.update({60: None, 61: "", 62: None, 63: "", 64: "only dups", 65: "only dups",
                  66: "only dups"})
    order = sorted(texts, key=lambda i: (i * 37) % 67)  # dups land in several blocks
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(order, pa.int64()),
        "text": pa.array([texts[i] for i in order], pa.string()),
    })).repartition(6).materialize()
    assert ds.num_blocks() == 6

    keep = exact_dedup_groups(ds, "text", "doc_id").map_batches(
        lambda t: pa.table({"doc_id": t.column("keep_id")}), batch_format="pyarrow")
    want = sorted((r["doc_id"], r["text"])
                  for r in hash_join(ds, keep, on=("doc_id",)).take_all())
    got = sorted((r["doc_id"], r["text"])
                 for r in exact_dedup_survivors(ds, "text", "doc_id").take_all())
    assert got == want
    assert {60, 64} <= {d for d, _ in got} and not {61, 62, 63, 65, 66} & {d for d, _ in got}

    # the curation stage: same survivors and counts as the gate followed by
    # the id-table plan (min_tokens=0 lets the null and empty texts through
    # the gate, min_tokens=1 drops them)
    from ner_extractor_ray.stages.textops import quality_batch

    for min_tokens in (0, 1):
        kw = dict(min_tokens=min_tokens, max_punct_ratio=1.0, min_stopword_ratio=0.0)
        s1 = ds.map_batches(
            lambda t: t.filter(quality_batch(t, text_col="text", id_col="doc_id",
                                             **kw).column("keep")),
            batch_format="pyarrow").materialize()
        keep = exact_dedup_groups(s1, "text", "doc_id").map_batches(
            lambda t: pa.table({"doc_id": t.column("keep_id")}), batch_format="pyarrow")
        want = sorted((r["doc_id"], r["text"])
                      for r in hash_join(s1, keep, on=("doc_id",)).take_all())
        s2, n_quality, n_exact = quality_exact_dedup(ds, "doc_id", "text", **kw)
        assert sorted((r["doc_id"], r["text"]) for r in s2.take_all()) == want
        assert (n_quality, n_exact) == (s1.count(), keep.count())


def test_lsh_pairs_empty_corpus():
    docs = ray.data.from_items(
        [{"doc_id": i, "text": f"totally unique sentence number {i} with word salad {i*7}"}
         for i in range(8)]
    )
    out = lsh_near_dup_pairs(docs, "text", "doc_id", shingle="word3", threshold=0.95)
    assert out.take_all() == []


def test_exact_dedup_counts():
    docs = ray.data.from_items(
        [{"doc_id": i, "text": "same text" if i < 3 else f"unique {i}"} for i in range(6)]
    )
    out = {r["keep_id"]: r["n_dups"] for r in exact_dedup_groups(docs, "text", "doc_id").take_all()}
    assert out[0] == 3
    assert all(v == 1 for k, v in out.items() if k != 0)


def _write_embeddings(tmp_path, n=64, dim=16):
    """Synthetic embeddings table with a PLANTED near-identical pair
    (vec_id 10 and 11) and otherwise well-separated vectors."""
    import numpy as np
    import pyarrow.parquet as pq

    rng = np.random.RandomState(7)
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    vecs[11] = vecs[10] + 1e-4 * rng.normal(size=dim).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
            "label": pa.array([0] * n, pa.int32()),
        }
    )
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    return str(tmp_path)


def test_embedding_neardup_finds_planted_pair(tmp_path):
    from ner_extractor_ray.pipelines.queries import q_embedding_neardup

    d = _write_embeddings(tmp_path)
    pairs = {(r["id_a"], r["id_b"]) for r in q_embedding_neardup(d).take_all()}
    assert (10, 11) in pairs
    # random gaussian vectors in 16-d are nowhere near cos > 0.95
    assert pairs == {(10, 11)}


def test_embedding_neardup_bucket_cap_chain(tmp_path):
    """With a tiny bucket_cap every bucket takes the chain fallback; the
    planted pair has ADJACENT ids, so the O(n) consecutive scan keeps it."""
    from ner_extractor_ray.pipelines.queries import q_embedding_neardup

    d = _write_embeddings(tmp_path)
    pairs = {(r["id_a"], r["id_b"]) for r in q_embedding_neardup(d, bucket_cap=2).take_all()}
    assert (10, 11) in pairs


def _nodes(keys):
    """``keys``: norm_key strings (type ORG) or (type, norm_key) tuples."""
    typed = [k if isinstance(k, tuple) else ("ORG", k) for k in keys]
    return ray.data.from_items(
        [{"node": f"{t}:{k}", "type": t, "norm_key": k, "n_mentions": 1} for t, k in typed]
    )


def _both_plans(keys, **kw):
    return [
        sorted(
            (r["node"], r["entity_id"], r["canonical_name"])
            for r in canonicalize_nodes(_nodes(keys), driver_threshold=dt, **kw).take_all()
        )
        for dt in (10_000, 0)
    ]


def test_canonicalize_plans_agree():
    """Driver union-find plan (small vocab) and distributed CC plan must
    produce byte-identical assignments — same pair generation by design —
    on the all-pairs path, the over-cap sorted chain and the type filter."""
    keys = [
        "acme corporation international",
        "acme corporation internationale",
        "globex holdings limited",
        "globex holdings ltd",
        "unrelated zebra company",
    ]
    driver, dist = _both_plans(keys)
    assert driver == dist
    eids = {e for _, e, _ in driver}
    assert len(eids) == 3  # two merged pairs + one singleton

    # 8 near-identical ORG keys share LSH buckets of 8 > bucket_cap=3 (the
    # chain branch); one key under two types shares every bucket (the type
    # filter keeps them apart)
    from ner_extractor_ray.stages.canonicalize import _band_rows

    keys = [f"initech systems group {c}" for c in "abcdefgh"] + [
        ("ORG", "umbrella corp"), ("PER", "umbrella corp")]
    bands = _band_rows(pa.Table.from_pylist(_nodes(keys).take_all()))
    per_bucket: dict = {}
    for b, nd in zip(bands.column("bucket").to_pylist(), bands.column("node").to_pylist()):
        per_bucket.setdefault(b, set()).add(nd)
    assert max(len(v) for v in per_bucket.values()) > 3
    assert {"ORG:umbrella corp", "PER:umbrella corp"} in per_bucket.values()
    driver, dist = _both_plans(keys, bucket_cap=3)
    assert driver == dist
    eid = {n: e for n, e, _ in driver}
    assert len({eid[f"ORG:initech systems group {c}"] for c in "abcdefgh"}) == 1
    assert eid["ORG:umbrella corp"] != eid["PER:umbrella corp"]


def test_bloom_filter_no_false_negatives():
    from ner_extractor_ray.functions.bloom import BloomFilter, build_bloom, semi_join_prefilter

    keys = ray.data.from_items([{"k": f"key-{i}"} for i in range(0, 1000, 2)])
    bf = build_bloom(keys, "k", n_bits=1 << 16)
    for i in range(0, 1000, 2):
        assert f"key-{i}" in bf  # zero false negatives, guaranteed
    fp = sum(1 for i in range(1, 1000, 2) if f"key-{i}" in bf)
    assert fp < 50  # false-positive rate stays small at this sizing

    import ray as _r

    probe = ray.data.from_items([{"k": f"key-{i}"} for i in range(1000)])
    kept = semi_join_prefilter(probe, "k", _r.put(bf)).take_all()
    kept_keys = {r["k"] for r in kept}
    assert {f"key-{i}" for i in range(0, 1000, 2)} <= kept_keys  # all true members survive


def test_asof_join_backward_semantics():
    import datetime as dt

    from ner_extractor_ray.stages.asof import asof_join

    T = lambda s: dt.datetime(2024, 1, 1, 0, 0, s)
    left = ray.data.from_items(
        [{"event_id": 1, "k": "a", "ts": T(10)},
         {"event_id": 2, "k": "a", "ts": T(20)},
         {"event_id": 3, "k": "b", "ts": T(5)}]
    )
    right = ray.data.from_items(
        [{"event_id": 10, "k": "a", "ts": T(8)},
         {"event_id": 11, "k": "a", "ts": T(15)},
         {"event_id": 12, "k": "b", "ts": T(9)}]  # after left b → no match
    )
    out = {r["event_id"]: r.get("event_id_r") for r in
           asof_join(left, right, on="k", ts_col="ts", num_partitions=4).take_all()}
    assert out[1] == 10       # latest right ts ≤ 10 is 8
    assert out[2] == 11       # latest ≤ 20 is 15
    assert out[3] is None or (out[3] != out[3])  # no prior right row for b
