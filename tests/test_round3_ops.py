"""Hand-computable fixtures for the late-round-3 operators: the sf tables
hash-match them against DuckDB, but these pin the interesting paths with
values small enough to verify by hand (memory: add a synthetic fixture when
the sf data might not exercise a path)."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ner_extractor_ray.pipelines.queries import (
    q_events_anomalies,
    q_inverted_index,
    q_orders_zorder,
    q_user_pareto,
    q_value_mannwhitney_u,
)


def test_mannwhitney_hand_computed(tmp_path):
    # purchase values [1, 2, 2], view [2, 3]:
    # U = 0 + 0.5 + 0.5 = 1.0 → u2 = 2
    pq.write_table(pa.table({
        "event_type": pa.array(["purchase", "purchase", "purchase",
                                "view", "view", "click"]),
        "value": pa.array([1.0, 2.0, 2.0, 2.0, 3.0, 99.0]),
    }), tmp_path / "events.parquet")
    out = q_value_mannwhitney_u(str(tmp_path)).to_pandas()
    assert out.iloc[0]["n1"] == 3 and out.iloc[0]["n2"] == 2
    assert out.iloc[0]["u2"] == 2  # click row ignored


def test_pareto_hand_computed(tmp_path):
    # user 1 → 8 events, users 2, 3 → 1 each: the head is exactly user 1
    # (its exclusive prefix 0 < 8; user 2 sits AT the 80% point — strict <
    # excludes it, mirroring "smallest prefix reaching ≥ 80%")
    pq.write_table(pa.table({
        "user_id": pa.array([1] * 8 + [2, 3], pa.int64()),
    }), tmp_path / "events.parquet")
    out = q_user_pareto(str(tmp_path)).to_pandas()
    row = out.iloc[0]
    assert (row["n_users"], row["n_events"], row["n_users_80"]) == (3, 10, 1)
    assert row["users_share_ppm"] == 333333


def test_zorder_known_bits(tmp_path):
    # cents 4096 → zx=1, 1995-01-02 → zy=1 → interleave 0b11 = 3;
    # cents 8192 → zx=2, 1995-01-01 → zy=0 → bit 1 of zx lands at pos 2 → 4
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_totalprice": pa.array([40.96, 81.92]),
        "o_orderdate": pa.array(
            [pd.Timestamp("1995-01-02"), pd.Timestamp("1995-01-01")],
            pa.timestamp("us")),
    }), tmp_path / "orders.parquet")
    out = q_orders_zorder(str(tmp_path)).to_pandas().set_index("o_orderkey")
    assert (out.loc[1, "zx"], out.loc[1, "zy"], out.loc[1, "zvalue"]) == (1, 1, 3)
    assert (out.loc[2, "zx"], out.loc[2, "zy"], out.loc[2, "zvalue"]) == (2, 0, 4)


def test_inverted_index_head_cap(tmp_path):
    # 'zzz' in 40 docs (df > 32): postings keep only the 32 smallest doc
    # ids; 'yy' in 2 docs keeps both — exercises the lossless combiner and
    # the head cap
    docs = [(i, "zzz") for i in range(1, 41)] + [(41, "yy"), (42, "yy")]
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in docs], pa.int64()),
        "text": pa.array([t for _, t in docs]),
    }), tmp_path / "documents.parquet")
    out = q_inverted_index(str(tmp_path)).to_pandas().set_index("token")
    assert out.loc["zzz", "df"] == 40
    assert out.loc["zzz", "postings"] == ",".join(f"{i}:0" for i in range(1, 33))
    assert out.loc["yy", "df"] == 2
    assert out.loc["yy", "postings"] == "41:0,42:0"


def test_anomalies_planted_spike(tmp_path):
    # 30 quiet days (10 events) + one 100-event spike: median 10, MAD 0 →
    # only the spike day exceeds the 3-MAD gate, deviation +90
    ts = []
    for d in range(30):
        ts += [pd.Timestamp("2020-01-01") + pd.Timedelta(days=d)] * 10
    ts += [pd.Timestamp("2020-02-15")] * 100
    pq.write_table(pa.table({"ts": pa.array(ts, pa.timestamp("us"))}),
                   tmp_path / "events.parquet")
    out = q_events_anomalies(str(tmp_path)).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["n"] == 100 and out.iloc[0]["deviation"] == 90


def test_supplier_diversity_exclusion(tmp_path):
    # suppliers 1, 2 sell part 10 (BrandA, size 5); supplier 2 is in deficit
    # → excluded, leaving exactly one distinct supplier. The sf0.001 table
    # has NO deficit suppliers, so this pins the anti path.
    from ner_extractor_ray.pipelines.queries import q_supplier_diversity

    pq.write_table(pa.table({
        "l_suppkey": pa.array([1, 1, 2], pa.int64()),
        "l_partkey": pa.array([10, 10, 10], pa.int64()),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([10], pa.int64()),
        "p_brand": pa.array(["BrandA"]),
        "p_size": pa.array([5], pa.int64()),
    }), tmp_path / "part.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_acctbal": pa.array([100.0, -1.0]),
    }), tmp_path / "supplier.parquet")
    out = q_supplier_diversity(str(tmp_path)).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["p_brand"], out.iloc[0]["p_size"],
            out.iloc[0]["n_suppliers"]) == ("BrandA", 5, 1)


def test_churned_high_value_threshold_and_anti(tmp_path):
    # positive balances 100, 300 → mean 200 (pair tot=20000 cents, n=2).
    # cust 1 (bal 300 > mean, no recent order) survives; cust 2 (300 but
    # HAS a recent order) and cust 3 (100 < mean) and cust 4 (negative —
    # excluded from the mean, below it anyway) do not.
    from ner_extractor_ray.pipelines.queries import q_churned_high_value

    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_nationkey": pa.array([7, 7, 7, 7], pa.int64()),
        "c_acctbal": pa.array([300.0, 300.0, 100.0, -50.0]),
    }), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array([2], pa.int64()),
        "o_orderdate": pa.array([pd.Timestamp("2001-01-01")],
                                pa.timestamp("us")),
    }), tmp_path / "orders.parquet")
    out = q_churned_high_value(str(tmp_path)).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["c_nationkey"], out.iloc[0]["n_customers"],
            out.iloc[0]["total_bal_cents"]) == (7, 1, 30000)


def test_benford_known_digits(tmp_path):
    # totals 1.00, 12.34, 190.00 → cents 100, 1234, 19000 → digit 1 ×3;
    # 55.00 → 5500 → digit 5 ×1. Shares: 750000 / 250000 ppm.
    from ner_extractor_ray.pipelines.queries import q_orders_benford

    pq.write_table(pa.table({
        "o_totalprice": pa.array([1.00, 12.34, 190.00, 55.00]),
    }), tmp_path / "orders.parquet")
    out = (q_orders_benford(str(tmp_path)).to_pandas()
           .sort_values("digit").reset_index(drop=True))
    assert list(out["digit"]) == [1, 5]
    assert list(out["n_orders"]) == [3, 1]
    assert list(out["share_ppm"]) == [750000, 250000]


def test_waiting_suppliers_sole_late_only(tmp_path):
    # order 1: suppliers 10 (late) + 11 (on time)  → supplier 10 counted.
    # order 2: suppliers 10 + 11 BOTH late          → nobody counted.
    # order 3: single supplier 10, late             → not counted (no peers).
    # Supplier 10's order-1 lateness comes from its SECOND line (max-fold).
    from ner_extractor_ray.pipelines.queries import q_waiting_suppliers

    d = pd.Timestamp("2000-01-01")
    late = pd.Timestamp("2000-06-01")   # > 90 days after d
    ok = pd.Timestamp("2000-02-01")     # within grace
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "l_suppkey": pa.array([10, 10, 11, 10, 11, 10], pa.int64()),
        "l_shipdate": pa.array([ok, late, ok, late, late, late],
                               pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderdate": pa.array([d, d, d], pa.timestamp("us")),
    }), tmp_path / "orders.parquet")
    out = q_waiting_suppliers(str(tmp_path)).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["l_suppkey"], out.iloc[0]["n_orders"]) == (10, 1)


def test_top_supplier_keeps_ties(tmp_path):
    # suppliers 1 and 2 tie at 200.00 in-window; supplier 3's larger revenue
    # is OUT of the Q1-1996 window and must not win.
    from ner_extractor_ray.pipelines.queries import q_top_supplier

    win = pd.Timestamp("1996-02-01")
    out_w = pd.Timestamp("1996-06-01")
    pq.write_table(pa.table({
        "l_suppkey": pa.array([1, 2, 3], pa.int64()),
        "l_shipdate": pa.array([win, win, out_w], pa.timestamp("us")),
        "l_extendedprice": pa.array([200.0, 200.0, 900.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0]),
    }), tmp_path / "lineitem.parquet")
    out = q_top_supplier(str(tmp_path)).to_pandas().sort_values("l_suppkey")
    assert list(out["l_suppkey"]) == [1, 2]
    assert list(out["revenue_cents"]) == [20000, 20000]


def test_brand_bracket_near_misses(tmp_path):
    # line 1 matches bracket 1 exactly (Brand#11, size 15, qty 15 → edges).
    # line 2 same brand/size but qty 16 → outside bracket 1's qty range
    #   (and wrong brand for brackets 2/3) → excluded.
    # line 3 Brand#22 size 26 → size over bracket 2's cap → excluded.
    from ner_extractor_ray.pipelines.queries import q_brand_bracket_revenue

    pq.write_table(pa.table({
        "l_partkey": pa.array([100, 100, 200], pa.int64()),
        "l_quantity": pa.array([15.0, 16.0, 12.0]),
        "l_extendedprice": pa.array([10.0, 10.0, 10.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0]),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([100, 200], pa.int64()),
        "p_brand": pa.array(["Brand#11", "Brand#22"]),
        "p_size": pa.array([15, 26], pa.int64()),
    }), tmp_path / "part.parquet")
    out = q_brand_bracket_revenue(str(tmp_path)).to_pandas()
    assert list(out["revenue_cents"]) == [1000]


def test_skewed_hash_join_mixed_split_matches_plain():
    # key 7 is hot (500 rows ≥ threshold 100), keys 1-3 cold, key 9 has no
    # build row (must drop under inner semantics on BOTH paths), build key 5
    # has no probe row. The union of map-side-hot + partitioned-cold must
    # equal the plain hash join row-for-row.
    import ray
    import ray.data

    from ner_extractor_ray.stages.joins import hash_join, skewed_hash_join

    probe_keys = [7] * 500 + [1, 1, 2, 3, 9]
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(probe_keys, pa.int64()),
        "payload": pa.array(list(range(len(probe_keys))), pa.int64()),
    })).repartition(4)
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([7, 1, 2, 3, 5], pa.int64()),
        "dim": pa.array(["h", "a", "b", "c", "unused"]),
    }))

    def norm(ds):
        df = ds.to_pandas()[["k", "payload", "dim"]]
        return df.sort_values(["k", "payload"]).reset_index(drop=True)

    got = norm(skewed_hash_join(left, right, "k", hot_row_threshold=100))
    want = norm(hash_join(left, right, on=("k",)))
    assert len(got) == 504  # 500 hot + 4 cold; key 9 dropped
    pd.testing.assert_frame_equal(got, want)


def test_skewed_hash_join_null_keys_never_hot():
    # 6 NULL probe keys cross the threshold, but NULL never joins: the
    # null-key build row must not match them (hash_join keeps only k=1).
    import ray.data

    from ner_extractor_ray.stages.joins import hash_join, skewed_hash_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([None] * 6 + [1], pa.int64()),
        "payload": pa.array(list(range(7)), pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([None, 1], pa.int64()),
        "dim": pa.array(["null", "a"]),
    }))

    def norm(ds):
        return sorted((r["k"], r["payload"], r["dim"]) for r in ds.take_all())

    got = norm(skewed_hash_join(left, right, "k", hot_row_threshold=3))
    assert got == norm(hash_join(left, right, on=("k",))) == [(1, 6, "a")]


def test_skewed_hash_join_all_hot_no_cold_union():
    # every probe key hot → the cold side is EMPTY; the implementation must
    # not union with a schemaless empty dataset.
    import ray.data

    from ner_extractor_ray.stages.joins import skewed_hash_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1] * 50 + [2] * 50, pa.int64()),
        "payload": pa.array(list(range(100)), pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "dim": pa.array(["a", "b"]),
    }))
    out = skewed_hash_join(left, right, "k", hot_row_threshold=10).to_pandas()
    assert len(out) == 100
    assert set(out.loc[out["k"] == 1, "dim"]) == {"a"}


def test_weighted_median_boundary_rule(tmp_path):
    # flag A: weights 1@100, 1@200 → tot 2; cum(100)=1, 2·1 ≥ 2 → the LOWER
    # weighted median 100 (not an average). flag B: 1@100, 2@200 → tot 3;
    # 2·1 < 3 at 100, so 200.
    from ner_extractor_ray.pipelines.queries import q_weighted_median

    pq.write_table(pa.table({
        "l_returnflag": pa.array(["A", "A", "B", "B"]),
        "l_extendedprice": pa.array([1.00, 2.00, 1.00, 2.00]),
        "l_quantity": pa.array([1.0, 1.0, 1.0, 2.0]),
    }), tmp_path / "lineitem.parquet")
    out = (q_weighted_median(str(tmp_path)).to_pandas()
           .sort_values("l_returnflag").reset_index(drop=True))
    assert list(out["l_returnflag"]) == ["A", "B"]
    assert list(out["wmedian_cents"]) == [100, 200]


def test_graph_walks_match_reference_walker(tmp_path):
    # path graph p1—p2—p3 (each co-order pair appears in 2 orders to pass
    # min_n=2). A pure-Python walker replays the same hash; spot-check the
    # hand-derived start=1 trajectory [1, 2, 3, 2]:
    # h(1,1,1) % deg(1)=1 → rank 0 = 2; h(1,2,2)=279541001 odd → rank 1 = 3;
    # h(1,3,3) % 1 → back to 2.
    from ner_extractor_ray.pipelines.queries import (_WALK_STEPS, _walk_hash,
                                                     q_graph_walks)
    import numpy as np

    rows_o, rows_p = [], []
    for ok, (a, b) in enumerate([(1, 2), (1, 2), (2, 3), (2, 3)]):
        rows_o += [ok, ok]
        rows_p += [a, b]
    pq.write_table(pa.table({
        "l_orderkey": pa.array(rows_o, pa.int64()),
        "l_partkey": pa.array(rows_p, pa.int64()),
    }), tmp_path / "lineitem.parquet")

    adj = {1: [2], 2: [1, 3], 3: [2]}
    expect = set()
    for start in adj:
        cur = start
        expect.add((start, 0, start))
        for step in range(1, _WALK_STEPS + 1):
            nbrs = adj[cur]
            h = int(_walk_hash(np.array([start]), np.array([cur]), step)[0])
            cur = nbrs[h % len(nbrs)]
            expect.add((start, step, cur))

    out = q_graph_walks(str(tmp_path)).to_pandas()
    got = set(zip(out["start"], out["step"], out["node"]))
    assert got == expect
    walk1 = [n for s, st, n in sorted(got) if s == 1]
    assert walk1 == [1, 2, 3, 2]
    # threshold=0 forces the at-scale plan (per-step degree hash join +
    # packed-key adjacency join, no broadcasts) — identical trajectories
    joined = q_graph_walks(str(tmp_path),
                           degree_broadcast_threshold=0).to_pandas()
    assert set(zip(joined["start"], joined["step"], joined["node"])) == expect


def test_temperature_mix_isqrt_and_quota(tmp_path):
    # non-square counts pin the exact-isqrt path, and the big source pins
    # TRIMMING: A n=24 (isqrt 4), B n=8 (isqrt 2), C n=1 (isqrt 1),
    # D n=1000 (isqrt 31) → Σw=38. TARGET=50 quotas: A 50·4//38=5 (trims
    # 24→5), B 50·2//38=2, C 50//38=1, D 50·31//38=40 (trims 1000→40).
    from ner_extractor_ray.pipelines.queries import q_temperature_mix

    ids = (list(range(24)) + list(range(100, 108)) + [500]
           + list(range(2000, 3000)))
    src = ["A"] * 24 + ["B"] * 8 + ["C"] + ["D"] * 1000
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "source": pa.array(src),
    }), tmp_path / "documents.parquet")
    out = q_temperature_mix(str(tmp_path)).to_pandas()
    got = out.groupby("source").size().to_dict()
    assert got == {"A": 5, "B": 2, "C": 1, "D": 40}


def test_mutual_knn_reciprocity(tmp_path):
    # 1-D family on the y-axis (values k/16 — exact in float32, so the
    # integer scaling is hand-checkable): v0..v4 descending, v5 orthogonal.
    # Every vector's top-3 prefers the largest y's; v4 picks (0,1,2) but
    # nobody picks v4, v5's all-zero dots tie-break to (0,1,2) and are
    # never reciprocated → mutual = the 6 pairs within {0,1,2,3}.
    from ner_extractor_ray.pipelines.queries import q_mutual_knn

    ys = [0.625, 0.5625, 0.5, 0.4375, 0.375]
    vecs = [[0.0, y] for y in ys] + [[2.0, 0.0]]
    pq.write_table(pa.table({
        "vec_id": pa.array(list(range(6)), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
    }), tmp_path / "embeddings.parquet")
    out = q_mutual_knn(str(tmp_path)).to_pandas()
    got = set(zip(out["a"], out["b"]))
    assert got == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    d01 = int(out.set_index(["a", "b"]).loc[(0, 1), "dot"])
    assert d01 == 6250 * 5625


def test_mutual_knn_gate_raises(tmp_path):
    from ner_extractor_ray.pipelines.queries import q_mutual_knn
    import pytest as _pt

    pq.write_table(pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([[0.1, 0.2]] * 3, pa.list_(pa.float32())),
    }), tmp_path / "embeddings.parquet")
    with _pt.raises(ValueError, match="quadratic"):
        q_mutual_knn(str(tmp_path), broadcast_limit=2)


def test_cheapest_supplier_price_tie(tmp_path):
    # part 1: suppliers 9 and 2 both quote 5.00 → smaller suppkey 2 wins;
    # part 2: supplier 9's 3.00 beats supplier 2's 4.00.
    from ner_extractor_ray.pipelines.queries import q_cheapest_supplier

    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 1, 2, 2], pa.int64()),
        "l_suppkey": pa.array([9, 2, 9, 2], pa.int64()),
        "l_extendedprice": pa.array([5.0, 5.0, 3.0, 4.0]),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([2, 9], pa.int64()),
        "s_name": pa.array(["S2", "S9"]),
    }), tmp_path / "supplier.parquet")
    out = (q_cheapest_supplier(str(tmp_path)).to_pandas()
           .sort_values("p_partkey").reset_index(drop=True))
    assert list(out["s_suppkey"]) == [2, 9]
    assert list(out["s_name"]) == ["S2", "S9"]
    assert list(out["min_price_cents"]) == [500, 300]


def test_cusum_planted_level_shift(tmp_path):
    # 10 days at 10 events + 5 days at 20 → trunc mean 200//15 = 13;
    # CUSUM stays pinned at 0 through the quiet days (max-with-0 floor)
    # and ramps +7/day after the shift: 7, 14, 21, 28, 35.
    from ner_extractor_ray.pipelines.queries import q_events_cusum

    ts = []
    for d in range(10):
        ts += [pd.Timestamp("2021-01-01") + pd.Timedelta(days=d)] * 10
    for d in range(10, 15):
        ts += [pd.Timestamp("2021-01-01") + pd.Timedelta(days=d)] * 20
    pq.write_table(pa.table({"ts": pa.array(ts, pa.timestamp("us"))}),
                   tmp_path / "events.parquet")
    out = (q_events_cusum(str(tmp_path)).to_pandas()
           .sort_values("day").reset_index(drop=True))
    assert list(out["cusum"][:10]) == [0] * 10
    assert list(out["cusum"][10:]) == [7, 14, 21, 28, 35]


def test_kmv_exact_branch_and_estimate(tmp_path):
    # 'rare' has 3 distinct users (< k=16) → est = EXACT 3;
    # 'big' has 40 → est = 15·2^63 // h16, recomputed here independently
    # from hashlib.
    import hashlib

    from ner_extractor_ray.pipelines.queries import q_kmv_users

    users = list(range(40))
    rows_t = ["big"] * 40 + ["rare"] * 6
    rows_u = users + [100, 101, 102, 100, 101, 102]
    pq.write_table(pa.table({
        "event_type": pa.array(rows_t),
        "user_id": pa.array(rows_u, pa.int64()),
    }), tmp_path / "events.parquet")

    def h64(u):
        return int.from_bytes(hashlib.md5(str(u).encode()).digest()[:8],
                              "big") >> 1

    hs = sorted(h64(u) for u in users)[:16]
    want_big = 15 * (1 << 63) // hs[-1]

    out = q_kmv_users(str(tmp_path)).to_pandas().set_index("event_type")
    assert out.loc["rare", "n_hashes"] == 3
    assert out.loc["rare", "est_distinct"] == 3
    assert out.loc["big", "n_hashes"] == 16
    assert out.loc["big", "kth_hash"] == hs[-1]
    assert out.loc["big", "est_distinct"] == want_big


def test_rfm_quintile_boundaries(tmp_path):
    # 5 purchase users with strictly increasing recency/frequency/monetary
    # all aligned → user i gets r=f=m=i+1 exactly (rank arithmetic, n=5);
    # the view row must be ignored.
    from ner_extractor_ray.pipelines.queries import q_rfm_segments

    ts, uid, val, typ = [], [], [], []
    for i in range(5):
        for j in range(i + 1):            # frequency i+1
            ts.append(pd.Timestamp("2021-01-01") + pd.Timedelta(days=10 * i))
            uid.append(i)
            val.append(float(10 * (i + 1)))
            typ.append("purchase")
    ts.append(pd.Timestamp("2021-06-01")); uid.append(0)
    val.append(9999.0); typ.append("view")
    pq.write_table(pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(uid, pa.int64()),
        "value": pa.array(val),
        "event_type": pa.array(typ),
    }), tmp_path / "events.parquet")
    out = (q_rfm_segments(str(tmp_path)).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    assert list(out["user_id"]) == [0, 1, 2, 3, 4]
    for col in ("r", "f", "m"):
        assert list(out[col]) == [1, 2, 3, 4, 5]
    assert list(out["rfm"]) == [111, 222, 333, 444, 555]


def _ref_bpe(texts, n_merges):
    """Independent single-process BPE reference: dict-based word counts,
    tuple-pair counting, greedy left-to-right merge — no shared code with
    functions/bpe.py beyond the (count desc, left asc, right asc) tie rule."""
    import re

    words = {}
    for s in texts:
        for w in re.findall(r"[a-z0-9]+", s.lower()):
            words[w] = words.get(w, 0) + 1
    vocab = {tuple(list(w) + ["</w>"]): n for w, n in words.items()}
    merges = []
    for rank in range(1, n_merges + 1):
        pairs = {}
        for seq, n in vocab.items():
            for a, b in zip(seq, seq[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + n
        if not pairs:
            break
        (left, right), cnt = min(
            pairs.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        merges.append((rank, left, right, cnt))
        new_vocab = {}
        for seq, n in vocab.items():
            out, i = [], 0
            while i < len(seq):
                if (i + 1 < len(seq) and seq[i] == left
                        and seq[i + 1] == right):
                    out.append(left + right)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + n
        vocab = new_vocab
    return merges


def test_bpe_merges_match_reference(tmp_path):
    from ner_extractor_ray.pipelines.queries import q_bpe_merges

    texts = ["the cat sat on the mat", "the hat of the cat", "mats and hats",
             "a cataract on the catamaran", "hat hat hat mat mat the the"]
    pq.write_table(pa.table({"text": pa.array(texts)}),
                   tmp_path / "documents.parquet")
    got = q_bpe_merges(str(tmp_path)).to_pandas()
    ref = _ref_bpe(texts, 8)
    assert [tuple(r) for r in got.itertuples(index=False)] == ref
    assert len(ref) == 8


def test_bpe_merges_sf_data_match_reference():
    import duckdb

    from ner_extractor_ray.pipelines.queries import q_bpe_merges

    sf = "/root/testdata/sf0.001"
    got = q_bpe_merges(sf).to_pandas()
    texts = [r[0] for r in duckdb.sql(
        f"SELECT text FROM '{sf}/documents.parquet'").fetchall()]
    ref = _ref_bpe(texts, 8)
    assert [tuple(r) for r in got.itertuples(index=False)] == ref


def test_spend_gini_hand_computed(tmp_path):
    # spends [1,1,2,4] cents: num = -3·1 + -1·1 + 1·2 + 3·4 = 10
    # G = 10 / (4·8) = 0.3125 → 312500 ppm
    from ner_extractor_ray.pipelines.queries import q_spend_gini

    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_totalprice": pa.array([0.01, 0.01, 0.02, 0.04]),
    }), tmp_path / "orders.parquet")
    out = q_spend_gini(str(tmp_path)).to_pandas()
    assert out.iloc[0]["n_users"] == 4
    assert out.iloc[0]["total_cents"] == 8
    assert out.iloc[0]["gini_ppm"] == 312500


def test_pii_kernel_redacts_and_counts():
    # kernel-level edge cases: multiple matches, a dotted-quad mail domain
    # (NOT an email — the TLD must be alphabetic — so the quad redacts as
    # [IP] and the local part survives), empty string, null.
    from ner_extractor_ray.functions.pii import pii_counts, redact

    col = pa.array([
        "a@b.com then c.d+x@e.org and 555-123-4567 from 10.0.0.1",
        "mail user@10.0.0.1 please",
        "",
        None,
    ])
    red = redact(col).to_pylist()
    assert red[0] == "[EMAIL] then [EMAIL] and [PHONE] from [IP]"
    assert red[1] == "mail user@[IP] please"
    assert red[2] == ""
    assert red[3] is None
    c = {k: v.to_pylist() for k, v in pii_counts(col).items()}
    assert c["n_email"] == [2, 0, 0, None]
    assert c["n_phone"] == [1, 0, 0, None]
    assert c["n_ipv4"] == [1, 1, 0, None]


def test_pii_redact_branches(tmp_path):
    # one customer per c_custkey%3 branch: email+phone / ipv4 / clean
    from ner_extractor_ray.pipelines.queries import q_pii_redact, q_pii_stats

    pq.write_table(pa.table({
        "c_custkey": pa.array([300, 301, 302], pa.int64()),
        "c_name": pa.array(["A", "B", "C"]),
        "c_mktsegment": pa.array(["S1", "S2", "S3"]),
    }), tmp_path / "customer.parquet")
    out = (q_pii_redact(str(tmp_path)).to_pandas()
           .sort_values("c_custkey").reset_index(drop=True))
    assert out.loc[0, "redacted"] == "reach A at [EMAIL] or [PHONE]"
    assert list(out.loc[0, ["n_email", "n_phone", "n_ipv4"]]) == [1, 1, 0]
    # 301: 10.(301%256)=45 . (301//256)%256=1 . 301%250=51
    assert out.loc[1, "redacted"] == "B logged in from [IP] while browsing S2"
    assert list(out.loc[1, ["n_email", "n_phone", "n_ipv4"]]) == [0, 0, 1]
    assert out.loc[2, "redacted"] == "no contact on file for C in S3"
    assert list(out.loc[2, ["n_email", "n_phone", "n_ipv4"]]) == [0, 0, 0]
    st = (q_pii_stats(str(tmp_path)).to_pandas()
          .set_index("pii_type").sort_index())
    assert st.loc["email"].tolist() == [1, 1]
    assert st.loc["phone"].tolist() == [1, 1]
    assert st.loc["ipv4"].tolist() == [1, 1]


def test_quality_classifier_hand_weights(tmp_path):
    # score must equal sum over TOKEN OCCURRENCES (multiplicity) of
    # (md5_64(tok) % 2001) - 1000; zero-token docs are dropped.
    from ner_extractor_ray.functions.textfns import md5_hash64
    from ner_extractor_ray.pipelines.queries import q_quality_classifier

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["Big big TABLE", "!!!"]),
    }), tmp_path / "documents.parquet")
    out = q_quality_classifier(str(tmp_path)).to_pandas()
    assert out["doc_id"].tolist() == [1]
    w = lambda t: int(md5_hash64(t) % 2001) - 1000
    exp = 2 * w("big") + w("table")
    assert out.loc[0, "n_tokens"] == 3
    assert out.loc[0, "score_sum"] == exp
    assert out.loc[0, "keep"] == (1 if exp >= 0 else 0)


def test_keyed_prefix_max_matches_numpy(tmp_path):
    # duplicate keys + ties: exclusive prefix max in (key, id) order must
    # equal the brute-force scan; strictly-first row gets int64 min.
    import numpy as np
    import ray

    from ner_extractor_ray.functions.rank import keyed_prefix_max

    rng = np.random.default_rng(7)
    n = 500
    key = rng.integers(0, 50, n)          # heavy duplicates
    val = rng.integers(-100, 100, n)
    ids = np.arange(n)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(key, pa.int64()),
        "id": pa.array(ids, pa.int64()),
        "v": pa.array(val, pa.int64())}))
    got = (keyed_prefix_max(ds, "k", "id", "v", n_buckets=8, out="pm")
           .to_pandas().sort_values("id"))
    order = np.lexsort((ids, key))
    exp = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
    run = np.iinfo(np.int64).min
    for pos in order:
        exp[pos] = run
        run = max(run, val[pos])
    assert got["pm"].to_numpy().tolist() == exp[got["id"].to_numpy()].tolist()


def test_record_highs_ties_and_strictness(tmp_path):
    # equal-to-max is NOT a record; ts ties order by event_id so the second
    # event at t0 sees the first one's value.
    from ner_extractor_ray.pipelines.queries import q_record_highs

    t0 = pd.Timestamp("2024-01-01")
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([t0, t0, t0 + pd.Timedelta("1s"),
                        t0 + pd.Timedelta("2s")]),
        "value": pa.array([5.0, 5.0, 4.0, 6.0]),
    }), tmp_path / "events.parquet")
    out = (q_record_highs(str(tmp_path)).to_pandas()
           .sort_values("event_id"))
    assert out["event_id"].tolist() == [1, 4]
    assert out["value_cents"].tolist() == [500, 600]


def test_lm_score_hand_computed(tmp_path):
    # corpus: "a b" x5 docs + "a c b x" → model keeps only (a,b) n=5;
    # prefix(a) = 6 (a b ×5 and a c). p(b|a) = 5e6 // 6 = 833333 ppm.
    from ner_extractor_ray.pipelines.queries import q_lm_score

    texts = ["a b"] * 5 + ["a c b x"]
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "text": pa.array(texts),
    }), tmp_path / "documents.parquet")
    out = (q_lm_score(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert len(out) == 6
    for i in range(5):
        assert list(out.loc[i, ["n_bigrams", "n_hits", "score_ppm"]]) == \
            [1, 1, 5_000_000 // 6]
    # doc 5: bigrams (a,c),(c,b),(b,x) — none in the model
    assert list(out.loc[5, ["n_bigrams", "n_hits", "score_ppm"]]) == [3, 0, 0]


def test_bm25_hand_computed(tmp_path):
    # 3 docs, query term 'table' only (others absent): doc 1 tf=2 dl=4,
    # doc 2 tf=1 dl=2, doc 3 tf=0. Expected scores from the exact integer
    # form: idf = 1e6*(2N-2df+1)//(2df+1), contrib = idf*22*tf*TOT //
    # (10*tf*TOT + 3*TOT + 9*dl*N).
    from ner_extractor_ray.pipelines.queries import q_bm25_search

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["table x table y", "table z", "nothing here"]),
    }), tmp_path / "documents.parquet")
    out = (q_bm25_search(str(tmp_path)).to_pandas()
           .reset_index(drop=True))
    N, TOT, df = 3, 8, 2
    idf = 1_000_000 * (2 * N - 2 * df + 1) // (2 * df + 1)
    s1 = idf * (22 * 2 * TOT) // (10 * 2 * TOT + 3 * TOT + 9 * 4 * N)
    s2 = idf * (22 * 1 * TOT) // (10 * 1 * TOT + 3 * TOT + 9 * 2 * N)
    assert out["doc_id"].tolist() == [1, 2]      # doc 3 scores 0, dropped
    assert out["score_ppm"].tolist() == [s1, s2]
    assert s1 > s2 > 0


def test_session_ops_empty_tables(tmp_path):
    # zero-row inputs must yield zero-row (typed) outputs, not crashes —
    # bm25's corpus-stats aggregate returns None fields on an empty table.
    from ner_extractor_ray.pipelines.queries import (
        q_bm25_search, q_curriculum_pack, q_lm_score, q_pii_redact,
        q_pii_stats, q_quality_classifier, q_record_highs)

    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string()),
    }), tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "value": pa.array([], pa.float64()),
    }), tmp_path / "events.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([], pa.int64()),
        "c_name": pa.array([], pa.string()),
        "c_mktsegment": pa.array([], pa.string()),
    }), tmp_path / "customer.parquet")
    for fn in (q_pii_redact, q_pii_stats, q_quality_classifier,
               q_record_highs, q_lm_score, q_bm25_search, q_curriculum_pack):
        out = fn(str(tmp_path))
        n = out.count() if hasattr(out, "count") else len(out)
        assert n == 0, fn.__name__


def test_lm_score_join_plan_equals_broadcast(tmp_path):
    # broadcast_limit=0 forces the partitioned-join scoring path; it must
    # equal the broadcast plan row for row (the triangle_count discipline).
    from ner_extractor_ray.pipelines.queries import q_lm_score

    texts = ["a b"] * 5 + ["a c b x", "q r"]
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(7)), pa.int64()),
        "text": pa.array(texts),
    }), tmp_path / "documents.parquet")
    want = (q_lm_score(str(tmp_path)).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    got = (q_lm_score(str(tmp_path), broadcast_limit=0).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()].astype("int64"), want.astype("int64"))


def test_knn_srp_planted_neighbors(tmp_path):
    # LSH can only find STRONG neighbors (the sf embeddings' top-10 sit at
    # cosine ~0.3 → expected Hamming ~5/12, correctly outside a 1-bit
    # probe), so recall is pinned on planted near-query vectors: 10 vectors
    # at cosine ≥ 0.99 among 500 noise rows must all be recovered, in the
    # exact brute-force order, identically across two runs.
    import numpy as np

    from ner_extractor_ray.functions.similarity import knn_brute, knn_srp
    import ray

    rng = np.random.default_rng(11)
    dim = 64
    noise = rng.standard_normal((500, dim))
    planted = np.ones((10, dim)) + 0.05 * rng.standard_normal((10, dim))
    M = np.vstack([noise, planted])
    ids = np.arange(len(M), dtype=np.int64)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(list(M), pa.list_(pa.float64())),
    }), tmp_path / "embeddings.parquet")
    ds = ray.data.read_parquet(str(tmp_path / "embeddings.parquet"))
    q = np.ones((1, dim))
    exact = knn_brute(ds, q, k=10).to_pandas().sort_values("rank")
    a = knn_srp(ds, q, k=10).to_pandas().sort_values("rank")
    b = knn_srp(ds, q, k=10).to_pandas().sort_values("rank")
    assert a["vec_id"].tolist() == b["vec_id"].tolist()
    # all 10 planted ids (500..509) are the exact top-10 AND the SRP top-10
    assert set(exact["vec_id"]) == set(range(500, 510))
    assert a["vec_id"].tolist() == exact["vec_id"].tolist()


def test_knn_srp_sf_data_deterministic():
    from ner_extractor_ray.pipelines.queries import q_knn_srp

    sf = "/root/testdata/sf0.001"
    a = q_knn_srp(sf).to_pandas().sort_values("rank")
    b = q_knn_srp(sf).to_pandas().sort_values("rank")
    assert a["vec_id"].tolist() == b["vec_id"].tolist()
    assert a["rank"].tolist() == list(range(1, len(a) + 1))


def test_coverage_select_greedy_not_topk(tmp_path):
    # GREEDY coverage ≠ top-k by size: doc 2 has 5 distinct tokens but only
    # 1 new after doc 1 wins round 1 (tie 5 vs 5 → min id), so rounds 2 and
    # 3 go to the smaller-but-disjoint docs 3 (3 new) and 4 (2 new).
    from ner_extractor_ray.pipelines.queries import q_coverage_select

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a b c d e", "a b c d x", "p q r", "x y"]),
    }), tmp_path / "documents.parquet")
    out = q_coverage_select(str(tmp_path)).to_pandas()
    assert list(zip(out["round"], out["doc_id"], out["new_tokens"])) == [
        (1, 1, 5), (2, 3, 3), (3, 4, 2)]


def test_coverage_select_early_stop(tmp_path):
    # identical docs: after round 1 nothing is new — selection stops at 1
    # row instead of emitting zero-gain winners.
    from ner_extractor_ray.pipelines.queries import q_coverage_select

    pq.write_table(pa.table({
        "doc_id": pa.array([7, 8, 9], pa.int64()),
        "text": pa.array(["same words here"] * 3),
    }), tmp_path / "documents.parquet")
    out = q_coverage_select(str(tmp_path)).to_pandas()
    assert list(zip(out["round"], out["doc_id"], out["new_tokens"])) == [
        (1, 7, 3)]


def test_peak_concurrency_hand_computed(tmp_path):
    # u1 [0s,10s]; u2 and u3 instant sessions at 5s; u4 starts at 10s+1µs
    # (the half-open end: NOT concurrent with u1); u5 events 0s and 3600s
    # exactly — gap is NOT > 1h, so ONE session [0s,3600s]. At t=5s users
    # 1,2,3,5 are active → peak 4; 5 sessions total (a split u5 would read 6).
    us = 1_000_000
    rows = [(1, 0), (1, 10 * us), (2, 5 * us), (3, 5 * us),
            (4, 10 * us + 1), (5, 0), (5, 3600 * us)]
    pq.write_table(pa.table({
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "ts": pa.array([t for _, t in rows], pa.timestamp("us")),
    }), tmp_path / "events.parquet")
    from ner_extractor_ray.pipelines.queries import q_peak_concurrency

    out = q_peak_concurrency(str(tmp_path)).to_pandas()
    assert (out.iloc[0]["n_sessions"], out.iloc[0]["peak_concurrency"]) == (5, 4)


def test_daily_ohlc_tiebreak(tmp_path):
    # two events at the SAME ts: open takes the min event_id (cents 100),
    # close the max (cents 300); a later event closes at 50, hi/lo span all.
    us = 1_000_000
    pq.write_table(pa.table({
        "event_type": pa.array(["view"] * 3),
        "ts": pa.array([10 * us, 10 * us, 20 * us], pa.timestamp("us")),
        "event_id": pa.array([2, 1, 3], pa.int64()),
        "value": pa.array([3.0, 1.0, 0.5]),
    }), tmp_path / "events.parquet")
    from ner_extractor_ray.pipelines.queries import q_daily_ohlc

    out = q_daily_ohlc(str(tmp_path)).to_pandas().iloc[0]
    assert (out["open_cents"], out["high_cents"], out["low_cents"],
            out["close_cents"], out["n_events"]) == (100, 300, 50, 50, 3)


def test_late_events_planted(tmp_path):
    # arrival order (event_id) 1..4: watermark after id2 (ts 43200 s) is
    # 43200−3600 = 39600 s. id3 at 37800 s < 39600 → LATE; id4 at exactly
    # 39600 s is NOT late (strict <). The sf tables have zero late rows, so
    # this pins the branch.
    us = 1_000_000
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([36000 * us, 43200 * us, 37800 * us, 39600 * us],
                       pa.timestamp("us")),
        "event_type": pa.array(["view"] * 4),
    }), tmp_path / "events.parquet")
    from ner_extractor_ray.pipelines.queries import q_late_events

    out = q_late_events(str(tmp_path)).to_pandas().iloc[0]
    assert (out["n_events"], out["n_late"]) == (4, 1)


def test_daily_locf_gap_fill(tmp_path):
    # view: data on days 0 and 3 → days 1, 2 carry day 0's close (filled=1);
    # day 0's close takes the later ts (200 cents, not 100). click: single
    # day — no fill. The sf tables have no empty days, so this pins the path.
    day = 86_400_000_000
    pq.write_table(pa.table({
        "event_type": pa.array(["view", "view", "view", "click"]),
        "ts": pa.array([10, 20, 3 * day + 5, day + 7], pa.timestamp("us")),
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "value": pa.array([1.0, 2.0, 9.0, 5.0]),
    }), tmp_path / "events.parquet")
    from ner_extractor_ray.pipelines.queries import q_daily_locf

    out = (q_daily_locf(str(tmp_path)).to_pandas()
           .sort_values(["event_type", "day"]).reset_index(drop=True))
    view = out[out["event_type"] == "view"]
    assert view["day"].tolist() == [0, 1, 2, 3]
    assert view["value_cents"].tolist() == [200, 200, 200, 900]
    assert view["filled"].tolist() == [0, 1, 1, 0]
    click = out[out["event_type"] == "click"]
    assert click["day"].tolist() == [1]
    assert click["value_cents"].tolist() == [500]
    assert click["filled"].tolist() == [0]


def test_comovement_zero_fill_pair(tmp_path):
    # A only on day 0 (2 events), B only on day 1 (3): never co-occur, so
    # the pair must still appear with cov_num = n·0 − ΣxΣy = −6. C has one
    # event each day → cov_num 0 against both.
    day = 86_400_000_000
    ts = [0, 1, day, day + 1, day + 2, 2, day + 3]
    et = ["A", "A", "B", "B", "B", "C", "C"]
    pq.write_table(pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "event_type": pa.array(et),
    }), tmp_path / "events.parquet")
    from ner_extractor_ray.pipelines.queries import q_event_type_comovement

    out = q_event_type_comovement(str(tmp_path)).to_pandas()
    got = {(r["type_a"], r["type_b"]): (r["n_days"], r["cov_num"])
           for _, r in out.iterrows()}
    assert got == {("A", "B"): (2, -6), ("A", "C"): (2, 0),
                   ("B", "C"): (2, 0)}
