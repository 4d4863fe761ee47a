"""S8 — canonicalization: MinHash-LSH blocking → candidate pairs → distributed
connected components → canonical entity ids.

The genuinely wide/iterative stage (SURVEY.md §7.1 S8, §7.3). Pipeline:

  mentions(+node) ──pre-aggregated count──▶ distinct nodes (node, type, norm_key, n_mentions)
      ▶ minhash over char-3-shingles of norm_key → explode (band_id, band_hash, node)
      ▶ groupby(band) buckets → verified candidate pairs (same type, Jaccard ≥ τ)
      ▶ components of the pair participants (driver union-find or min-label
        propagation rounds); a node in no pair is its own component
      ▶ entity_id = blake2(min node of component); canonical_name = min norm_key

Skew handling (explicit, per the north rule):
  * counts are PARTIALLY AGGREGATED inside map_batches before the groupby, so a
    hot alias ("university", head domains) contributes ≤ 1 row per input batch
    to the shuffle instead of one row per mention;
  * oversized LSH buckets (> ``bucket_cap``) emit a SORTED CHAIN of pairs
    (a1-a2, a2-a3, …) instead of all O(n²) pairs — connectivity-preserving and
    linear in bucket size, the salting cap of SURVEY.md §7.1.

Determinism: representatives are lexicographic minima, hashes are blake2 —
identical output at any parallelism. Reference analog of the clustering step:
KMeans canonicalization of embeddings (scripts/visualize_embeddings.py:217-247)
re-expressed as LSH blocking + components (SURVEY.md A9).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions.blocking import bucket_pairs, union_find_min
from ..functions.hashing import stable_id
from ..functions.textfns import band_keys, char_shingles, jaccard, minhash_signature
from .joins import hash_join

NUM_PERM = 64
N_BANDS = 16


def pre_aggregated_count(
    ds: "ray.data.Dataset", keys: list[str], count_col: str = "n_mentions",
    prior: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """groupby(keys).count() with a per-batch combiner (partial aggregation)
    so hot keys never ship one shuffle row per input row (SURVEY.md §2.5 A2).
    A null key is a group of its own, as in SQL ``GROUP BY``.

    ``prior`` (columns ``keys + [count_col]``, already counted) joins the
    partials before the one aggregate: Sum is associative, so the result
    equals counting ``ds`` and then summing with ``prior`` in a second pass."""
    return TwoPhaseAggregate(keys, [Count(alias_name=count_col)],
                             [Sum(count_col, alias_name=count_col)]).aggregate(ds, prior)


def _compact_blocks() -> int:
    import ray as _ray

    cpus = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    return max(8, min(64, cpus))


def data_partitions(size_bytes: int, *, target_bytes: int = 64 << 20, lo: int = 2) -> int:
    """Partition count sized to the DATA, not the cluster: ceil(bytes/64MB),
    floored at ``lo``. For the iterative ops (CC, PageRank, k-core, BFS) the
    per-round cost is dominated by TASK COUNT once state tables are small —
    a 3k-row label table exchanged over 32 cluster-sized partitions costs
    ~50ms/task × hundreds of tasks per round while moving kilobytes. Sizing
    from the materialized ``size_bytes()`` gives 2 partitions there and grows
    unbounded with the data (100 TB ⇒ ~1.6M partitions ≫ any cluster cap),
    so the same code path is right at both extremes."""
    need = -(-max(0, int(size_bytes)) // target_bytes)  # ceil div
    return max(lo, need)


def _arrow_specs(keys: list[str], aggs) -> list[tuple] | None:
    """Ray aggregates → picklable (name, column, function, option) specs of
    :func:`aggregate_table`, or None if one of them is not Count/Sum/Min/Max.
    The option is the count mode (``Count()`` counts rows,
    ``Count(col, ignore_nulls=True)`` non-nulls) or Sum/Min/Max's skip_nulls."""
    specs = []
    for a in aggs:
        fn = {Count: "count", Sum: "sum", Min: "min", Max: "max"}.get(type(a))
        if fn is None:
            return None
        col, opt = a._target_col_name, a._ignore_nulls
        if fn == "count":
            if col is None or not opt:
                col, opt = keys[0], "all"
            else:
                opt = "only_valid"
        specs.append((a.name, col, fn, opt))
    return specs


def aggregate_table(t: pa.Table, keys: list[str], specs: list[tuple]) -> pa.Table:
    """The one group-by kernel: Arrow ``group_by(keys).aggregate`` over one
    table, with SQL semantics (a null key is a group; a Sum of only nulls is
    null). Output columns are ``keys`` then each spec's name, picked by name.

    Float Min/Max order NaN above every number, as DuckDB does: the Max of
    a group holding a NaN and the Min of an all-NaN group are NaN (Arrow's
    kernels skip NaN, giving ``-inf``/``inf`` for an all-NaN group). The
    rule composes, so per-batch partials keep it."""
    cols = {k: t.column(k) for k in keys}
    aggs = []
    for i, (_, col, fn, opt) in enumerate(specs):
        cols[f"__a{i}"] = t.column(col)
        aggs.append((f"__a{i}", fn, pc.CountOptions(opt) if fn == "count"
                     else pc.ScalarAggregateOptions(skip_nulls=opt)))
        if fn in ("min", "max") and pa.types.is_floating(t.column(col).type):
            cols[f"__n{i}"] = pc.is_nan(t.column(col))
            aggs.append((f"__n{i}", _NAN_WINS[fn], pc.ScalarAggregateOptions()))
    g = pa.table(cols).group_by(keys, use_threads=False).aggregate(aggs)
    out = {k: g.column(k) for k in keys}
    for i, (name, _, fn, _) in enumerate(specs):
        r = g.column(f"__a{i}_{fn}")
        if f"__n{i}" in cols:  # a null result (ignore_nulls=False) stays null
            nan = pc.and_(pc.fill_null(g.column(f"__n{i}_{_NAN_WINS[fn]}"), False),
                          pc.is_valid(r))
            r = pc.if_else(nan, pa.scalar(float("nan"), r.type), r)
        out[name] = r
    return pa.table(out)


# the NaN flag of a float Min/Max group: Max is NaN if ANY value is, Min
# only if ALL (non-null) values are
_NAN_WINS = {"min": "all", "max": "any"}


_KEY_MIX = np.uint64(0x9E3779B97F4A7C15)


def _bucket_ids(t: pa.Table, keys: list[str], n: int) -> pa.Array:
    """Bucket of each row in [0, n): a pure function of its key VALUES, so
    a group never splits across buckets, whatever a block's types or nulls.
    Integer and bool keys hash as int64 with nulls as 0; any other key
    hashes by its string value. Colliding groups merely share a bucket,
    where :func:`aggregate_table` still separates them."""
    h = np.zeros(t.num_rows, np.uint64)
    for k in keys:
        c = t.column(k)
        if pa.types.is_integer(c.type) or pa.types.is_boolean(c.type):
            c = pc.fill_null(pc.cast(c, pa.int64(), safe=False), 0)
        else:
            c = pc.cast(c, pa.string())
        h = h * _KEY_MIX + pd.util.hash_array(c.to_numpy(zero_copy_only=False))
    return pa.array((h % np.uint64(n)).astype(np.int64))


def grouped_aggregate(
    ds: "ray.data.Dataset", keys: list[str], *aggs,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """groupby(keys).aggregate(*aggs), cardinality-robust.

    Ray's native sort-based aggregate pays ~140 µs of per-GROUP Python reduce
    overhead — invisible on a 25-nation groupby, fatal on a high-cardinality
    one (1.2M distinct pair keys = 170 s measured vs ~4 s for the same
    shuffle volume through 32 coarse groups). Count/Sum/Min/Max therefore
    take a bucketed plan: each row gets a bucket id in ``[0, num_buckets)``
    (default ``_compact_blocks()``) from its key values, ONE sort-shuffle
    runs on that small int, and each bucket is aggregated by the Arrow
    kernel :func:`aggregate_table`. Cost is O(rows), independent of group
    count, and every key lands in exactly one bucket, so the result is that
    of one global group-by. Output blocks are Arrow tables.

    Scale contract: one bucket (≈ distinct_keys / num_buckets PARTIAL rows —
    callers pre-aggregate per batch, so this is vocabulary-, not corpus-,
    sized) is aggregated as one table per task; size ``num_buckets`` so that
    fits a worker heap, exactly like materialize.py's n_partitions.

    Any other aggregate (Mean, quantiles, custom AggregateFnV2) runs as
    Ray's own ``groupby(keys).aggregate``."""
    specs = _arrow_specs(keys, aggs)
    if specs is None:
        return ds.groupby(keys).aggregate(*aggs)
    P = int(num_buckets or _compact_blocks())

    return (
        ds.map_batches(lambda t: t.append_column("__b", _bucket_ids(t, keys, P)),
                       batch_format="pyarrow")
        .groupby("__b")
        .map_groups(lambda t: aggregate_table(t, keys, specs), batch_format="pyarrow")
    )


class TwoPhaseAggregate:
    """A grouped aggregate declared once: its ``keys``, the Ray aggregates
    of its per-batch ``partial`` and those of its ``final`` step, which
    merges partial rows associatively (a Count's partial is Sum-med, a Min
    stays a Min). Only Count/Sum/Min/Max; both steps are
    :func:`aggregate_table`. Every plan of the aggregate is built from:

    * :meth:`partials` -- the partial of each input batch, its columns
      picked by name (extra input columns are ignored), with an
      already-aggregated ``prior`` table (``columns``) unioned after it;
    * :meth:`finish` -- the final step over ONE table that holds every
      partial row of its groups, e.g. a write task whose partition key is
      part of ``keys`` (``write_partitioned(finish=)``);
    * :meth:`aggregate` -- the lazy plan: :func:`grouped_aggregate` of the
      final step over the compacted partials.

    Partial aggregation keeps hot keys to at most one shuffle row per input
    batch (SURVEY.md §2.5 A2)."""

    def __init__(self, keys: list[str], partial: list, final: list):
        self.keys = list(keys)
        self.final = list(final)
        self.columns = self.keys + [a.name for a in self.final]
        self._partial = _arrow_specs(self.keys, partial)
        self._final = _arrow_specs(self.keys, final)
        if self._partial is None or self._final is None:
            raise ValueError("TwoPhaseAggregate takes Count/Sum/Min/Max only")

    def partials(self, ds: "ray.data.Dataset",
                 prior: "ray.data.Dataset | None" = None) -> "ray.data.Dataset":
        keys, specs = self.keys, self._partial
        out = ds.map_batches(lambda t: aggregate_table(t, keys, specs),
                             batch_format="pyarrow")
        if prior is not None:
            out = out.union(prior.select_columns(self.columns))
        return out

    def finish(self, t: pa.Table) -> pa.Table:
        return aggregate_table(t, self.keys, self._final)

    def aggregate(self, ds: "ray.data.Dataset",
                  prior: "ray.data.Dataset | None" = None) -> "ray.data.Dataset":
        # compact the (small) partials: shuffle/aggregate cost scales with
        # block COUNT, and per-batch partials are many tiny blocks (13s →
        # 1s observed)
        return grouped_aggregate(
            self.partials(ds, prior).repartition(_compact_blocks()),
            self.keys, *self.final)


def distinct_nodes(
    mentions_ds: "ray.data.Dataset", prior: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """mentions (with node/norm_key/type) → distinct node table with counts.

    ``prior`` is an already-counted distinct node table (e.g. a previous
    snapshot's vocabulary); its counts are summed into the same aggregate."""
    return pre_aggregated_count(
        mentions_ds.select_columns(["node", "type", "norm_key"]),
        ["node", "type", "norm_key"],
        prior=prior,
    )


# the distinct_nodes table, as the driver plan collects it
_NODES = pa.schema([("node", pa.string()), ("type", pa.string()),
                    ("norm_key", pa.string()), ("n_mentions", pa.int64())])

_BUCKET_MIX = 0x9E3779B97F4A7C15  # golden-ratio mixer: (band_id, band_hash) → one int64


def _bucket_key(band_id: int, band_hash: int) -> int:
    """Single-int bucket id (multi-key groupby is ~10× slower; a collision
    merely merges two buckets, and every pair is Jaccard-verified anyway)."""
    return ((band_hash ^ (band_id * _BUCKET_MIX)) & 0x7FFFFFFFFFFFFFFF)


def _band_rows(batch: pa.Table) -> pa.Table:
    nodes = batch.column("node").to_pylist()
    keys = batch.column("norm_key").to_pylist()
    types = batch.column("type").to_pylist()
    o_bucket, o_node, o_key, o_type = [], [], [], []
    for node, key, typ in zip(nodes, keys, types):
        sig = minhash_signature(char_shingles(key), NUM_PERM)
        for b, h in enumerate(band_keys(sig, N_BANDS)):
            o_bucket.append(_bucket_key(b, h))
            o_node.append(node)
            o_key.append(key)
            o_type.append(typ)
    return pa.table(
        {
            "bucket": pa.array(o_bucket, pa.int64()),
            "node": pa.array(o_node, pa.string()),
            "norm_key": pa.array(o_key, pa.string()),
            "type": pa.array(o_type, pa.string()),
        }
    )


def _verified_pairs(bands: pa.Table, threshold: float, bucket_cap: int) -> pa.Table:
    """Band rows → in-bucket node pairs (a, b), a < b, of the same type with
    char-3 Jaccard ≥ ``threshold``. The one pair generator of both plans."""
    i, j = bucket_pairs(bands.column("bucket"), bands.column("node"), bucket_cap)
    types = bands.column("type").to_numpy(zero_copy_only=False)
    same = types[i] == types[j]
    i, j = i[same], j[same]
    keys = bands.column("norm_key").to_numpy(zero_copy_only=False)
    sh = {k: set(char_shingles(k)) for k in {*keys[i], *keys[j]}}
    ok = np.fromiter((jaccard(sh[x], sh[y]) >= threshold
                      for x, y in zip(keys[i], keys[j])), bool, len(i))
    nodes = bands.column("node")
    return pa.table({"a": nodes.take(i[ok]), "b": nodes.take(j[ok])})


def candidate_pairs(
    nodes_ds: "ray.data.Dataset",
    *,
    threshold: float = 0.6,
    bucket_cap: int = 64,
) -> "ray.data.Dataset":
    """LSH blocking + in-bucket verification → pair rows (a, b), a < b."""
    bands = nodes_ds.map_batches(_band_rows, batch_format="pyarrow")

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(t.column("bucket"), pa.int64()).to_numpy() % _compact_blocks()
        return t.append_column("__part", pa.array(part, pa.int64()))

    # one Ray group = MANY LSH buckets (bucket % P co-location): Ray's
    # map_groups costs ~80μs per group, so grouping by the raw bucket id
    # (≈1 group per node-band) would dominate wall time
    pairs = (
        bands.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(lambda g: _verified_pairs(g, threshold, bucket_cap),
                    batch_format="pyarrow")
    )
    # dedup pairs discovered in multiple bands
    return pre_aggregated_count(pairs, ["a", "b"], count_col="_nb").select_columns(["a", "b"])


def _rename_project(t: pa.Table, cols: list[tuple[str, str]]) -> pa.Table:
    """Project+rename that is safe on the zero-column empty blocks Ray's
    groupby/sort operators emit — always returns the target schema, so a
    downstream join never sees a schema-less block (pyarrow acero raises
    "No match for FieldRef" otherwise). ``cols`` = [(src, dst), ...]."""
    if t.num_rows == 0 or not {s for s, _ in cols} <= set(t.column_names):
        return pa.table({dst: pa.array([], pa.string()) for _, dst in cols})
    return pa.table({dst: t.column(src) for src, dst in cols})


def _driver_union_find(pairs_ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Small-graph plan: collect the (materialized) pairs and union-find them
    on the driver with min representatives — the labels the distributed plan
    converges to, without its fixed per-round executions."""
    from .materialize import collect_table  # materialize imports this module

    t = collect_table(pairs_ds, ["a", "b"])
    ntype = t.column("a").type if t.num_rows else pa.int64()  # no pairs: empty
    a, b = t.column("a").to_pylist(), t.column("b").to_pylist()
    nodes = list(dict.fromkeys(a + b))
    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes, ntype),
        "comp": pa.array(union_find_min(nodes, a, b), ntype),
    }))


def connected_components(
    pairs_ds: "ray.data.Dataset",
    *,
    max_rounds: int = 64,
    num_partitions: int | None = None,
    driver_threshold: int = 200_000,
) -> "ray.data.Dataset":
    """(a, b) pairs → (node, comp) for every node that appears in a pair,
    with comp the min node of its component. A node in no pair is its own
    component and gets no row: :func:`attach_components` gives it its own
    id in the join its caller runs anyway.

    The pair lineage runs once (materialized) and its row count — the rows
    the driver would collect — picks the plan: at most ``driver_threshold``
    pairs union-find on the driver, more run :func:`_distributed_cc` over
    the pair participants. Both plans give identical labels."""
    pairs_ds = pairs_ds.materialize()
    if pairs_ds.count() <= driver_threshold:
        return _driver_union_find(pairs_ds)
    ends = pairs_ds.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays([
            t.column("a").combine_chunks(),
            t.column("b").combine_chunks()])}),
        batch_format="pyarrow",
    )
    participants = pre_aggregated_count(
        ends, ["node"], "_c").select_columns(["node"]).materialize()
    return _distributed_cc(pairs_ds, participants, max_rounds=max_rounds,
                           num_partitions=num_partitions)


def attach_components(
    ds: "ray.data.Dataset", labels: "ray.data.Dataset", on: str
) -> "ray.data.Dataset":
    """``ds`` plus a ``comp`` column: the :func:`connected_components` label
    of its ``on`` value by one left join, or the value itself where it is in
    no pair (a singleton is its own component)."""
    if on != "node":
        # rename ds, not the labels: the labels' schema stays static, so the
        # join reads it without an execution
        ds = ds.map_batches(
            lambda t: t.rename_columns(["node" if c == on else c for c in t.column_names]),
            batch_format="pyarrow")

    def attach(t: pa.Table) -> pa.Table:
        if "node" not in t.column_names:
            return t  # schema-less empty block
        node = t.column("node")
        comp = (pc.cast(t.column("comp"), node.type) if "comp" in t.column_names
                else pa.nulls(t.num_rows, node.type))  # no labels: the join returned ds
        t = t.select([c for c in t.column_names if c != "comp"])
        return t.rename_columns([on if c == "node" else c for c in t.column_names]
                                ).append_column("comp", pc.coalesce(comp, node))

    return hash_join(ds, labels, on=("node",), how="left").map_batches(
        attach, batch_format="pyarrow")


def _distributed_cc(
    pairs_ds: "ray.data.Dataset",
    nodes_only: "ray.data.Dataset",
    *,
    max_rounds: int,
    num_partitions: int | None,
) -> "ray.data.Dataset":
    """Distributed plan of :func:`connected_components`: min-label
    propagation with pointer doubling over the pair participants
    ``nodes_only`` (node) → (node, comp).

    Labels move only along pair edges, so nodes in no pair never ride a
    round (400k-doc near-dup keep: 23 s → ~3 s once 368k singleton docs
    left the rounds). Each round: (1) edge relax — comp(dst) = min over
    {comp(src) | (src,dst) ∈ E ∪ self-loops}; (2) pointer jump — comp(x) =
    comp(comp(x)) (every label is itself a node, so the lookup is total).
    The jump shortcuts label chains, which collapses the sorted CHAINS the
    bucket-cap fallback emits for hot LSH buckets (paths 64+ hops long)
    far faster than plain relaxation. It does not bound the rounds by
    O(log diameter) on every graph: 3,000 random pairs over 6,000 ids plus
    a 64-node chain took 31 rounds (8 over 2,000 ids), and each round
    costs 4-5 Ray Data executions. Labels decrease monotonically, so the
    checksum-based fixpoint test terminates; ``max_rounds`` is a safety
    valve that RAISES rather than silently returning non-converged labels.
    Labels are materialized per round so the lazy lineage doesn't
    re-execute (SURVEY.md §7.3 "connected components on Ray Data")."""
    identity = nodes_only.map_batches(
        lambda t: _rename_project(t, [("node", "node"), ("node", "comp")]),
        batch_format="pyarrow",
    )
    fwd = pairs_ds.map_batches(
        lambda t: _rename_project(t, [("a", "src"), ("b", "dst")]),
        batch_format="pyarrow",
    )
    rev = pairs_ds.map_batches(
        lambda t: _rename_project(t, [("b", "src"), ("a", "dst")]),
        batch_format="pyarrow",
    )
    self_loops = nodes_only.map_batches(
        lambda t: _rename_project(t, [("node", "src"), ("node", "dst")]),
        batch_format="pyarrow",
    )
    edges = fwd.union(rev).union(self_loops).materialize()
    if num_partitions is None:
        # DATA-sized: edges is the per-round join input, so its block count
        # bounds every round's task count — compact the 3-way union once
        num_partitions = data_partitions(edges.size_bytes() or 0)
    edges = edges.repartition(num_partitions).materialize()

    labels = identity.materialize()

    def checksum(lab: "ray.data.Dataset") -> int:
        import zlib

        def part(df: pd.DataFrame) -> pd.DataFrame:
            if "node" not in df.columns:
                return pd.DataFrame({"s": [0]})
            s = sum(zlib.crc32(f"{n}\x00{c}".encode()) for n, c in zip(df["node"], df["comp"]))
            return pd.DataFrame({"s": [s]})

        row = lab.map_batches(part, batch_format="pandas").sum("s")
        return int(row or 0)

    prev = checksum(labels)
    for _ in range(max_rounds):
        lab_src = labels.map_batches(
            lambda t: _rename_project(t, [("node", "src"), ("comp", "comp")]),
            batch_format="pyarrow",
        )
        joined = hash_join(edges, lab_src, on=("src",), num_partitions=num_partitions)
        # materialize: the relax result feeds the convergence check AND both
        # sides of the jump join — an unmaterialized lineage would re-execute
        # this shuffle up to 4× per round
        # repartition BEFORE materializing: each union/groupby/join pass emits
        # ≈ (sum of input block counts) blocks, so without a cap the label
        # table's block count doubles per round — task count (not data!) grows
        # exponentially and round r costs 2^r. Pinning to num_partitions keeps
        # every round the same constant number of tasks.
        relaxed = (
            grouped_aggregate(joined, ["dst"], Min("comp", alias_name="comp"),
                              num_buckets=num_partitions)
            .map_batches(
                lambda t: _rename_project(t, [("dst", "node"), ("comp", "comp")]),
                batch_format="pyarrow",
            )
            .repartition(num_partitions)
            .materialize()
        )
        cur = checksum(relaxed)
        if cur == prev:
            # Labels decrease monotonically per node, so equal successive
            # relax outputs squeeze the jump state in between: the state is a
            # relax fixpoint ⇒ labels constant along every edge ⇒ converged.
            # (One checksum per round; a post-jump checksum would be a whole
            # extra pass for no earlier detection.)
            return relaxed
        # pointer jump: comp(x) ← comp(comp(x)). comp values are node ids (min
        # over node-id labels), so joining labels against themselves is total.
        prev = cur
        jump_left = relaxed.map_batches(
            lambda t: _rename_project(t, [("node", "node"), ("comp", "jk")]),
            batch_format="pyarrow",
        )
        jump_right = relaxed.map_batches(
            lambda t: _rename_project(t, [("node", "jk"), ("comp", "comp")]),
            batch_format="pyarrow",
        )
        # the jump reads ``relaxed`` twice, so Ray Data's stats tree of the
        # round-carried labels would double per round and every execution
        # summarizes it on the driver (a 128-pair chain: 110 s under cProfile,
        # nearly all in DatasetStats.to_summary); re-rooting the blocks drops it
        labels = ray.data.from_arrow_refs(
            hash_join(jump_left, jump_right, on=("jk",), num_partitions=num_partitions)
            .map_batches(
                lambda t: _rename_project(t, [("node", "node"), ("comp", "comp")]),
                batch_format="pyarrow",
            )
            .repartition(num_partitions)
            .materialize()
            .to_arrow_refs()
        )
    raise RuntimeError(
        f"connected_components did not converge in {max_rounds} rounds; "
        "raise max_rounds"
    )


def canonicalize_nodes(
    nodes_distinct: "ray.data.Dataset",
    *,
    threshold: float = 0.6,
    bucket_cap: int = 64,
    driver_threshold: int = 200_000,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """distinct nodes → entity assignments, choosing the physical plan by size.

    The distinct-surface vocabulary is usually orders of magnitude smaller
    than the corpus. Below ``driver_threshold`` rows the LSH-pairing +
    union-find runs on the driver (identical pair-generation code path:
    same bands, same bucket cap/chaining, same Jaccard verify — so both
    plans produce byte-identical assignments); above it, the distributed
    candidate_pairs → connected_components → entity_assignments plan runs.
    """
    from .materialize import collect_table  # materialize imports this module

    n = nodes_distinct.count()
    if n > driver_threshold:
        pairs = candidate_pairs(nodes_distinct, threshold=threshold, bucket_cap=bucket_cap)
        labels = connected_components(
            pairs, num_partitions=num_partitions, driver_threshold=driver_threshold)
        return entity_assignments(labels, nodes_distinct, num_partitions=num_partitions)

    nodes = collect_table(nodes_distinct, schema=_NODES)
    pairs = _verified_pairs(_band_rows(nodes), threshold, bucket_cap)
    comp = union_find_min(nodes.column("node").to_pylist(),
                          pairs.column("a").to_pylist(), pairs.column("b").to_pylist())
    canon: dict = {}
    for c, k in zip(comp, nodes.column("norm_key").to_pylist()):
        canon[c] = min(canon.get(c, k), k)
    eid = {c: stable_id(f"ent:{c}") for c in canon}
    return ray.data.from_arrow(pa.table({
        "node": nodes.column("node"),
        "entity_id": pa.array([eid[c] for c in comp], pa.string()),
        "canonical_name": pa.array([canon[c] for c in comp], pa.string()),
        "type": nodes.column("type"),
        "n_mentions": nodes.column("n_mentions"),
    }))


def entity_assignments(
    labels_ds: "ray.data.Dataset", nodes_ds: "ray.data.Dataset", num_partitions: int | None = None
) -> "ray.data.Dataset":
    """(node, comp) labels × node metadata → (node, entity_id,
    canonical_name, type, n_mentions) for every node of ``nodes_ds``.

    entity_id is a stable hash of the component representative (min node id),
    canonical_name the lexicographically-min norm_key in the component.
    """
    lab_nodes = attach_components(nodes_ds, labels_ds, "node")
    canon = (
        grouped_aggregate(lab_nodes, ["comp"],
                          Min("norm_key", alias_name="canonical_name"),
                          num_buckets=num_partitions)
        .map_batches(
            lambda t: _rename_project(t, [("comp", "comp"), ("canonical_name", "canonical_name")]),
            batch_format="pyarrow",
        )
    )
    with_canon = hash_join(lab_nodes, canon, on=("comp",), num_partitions=num_partitions)

    def finish(t: pa.Table) -> pa.Table:
        comps = t.column("comp").to_pylist()
        ids = [stable_id(f"ent:{c}") for c in comps]
        return t.append_column("entity_id", pa.array(ids, pa.string()))

    return with_canon.map_batches(finish, batch_format="pyarrow").select_columns(
        ["node", "entity_id", "canonical_name", "type", "n_mentions"]
    )
