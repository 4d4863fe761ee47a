"""Join strategies (SURVEY.md §2.4).

Partitioned joins for two large sides — the scale rule that matters at
10^12 documents. (A small side is broadcast by its caller instead: one
``ray.put`` and a vectorized lookup per batch, e.g. ``pipelines/kg.py``
``_IdLookup``.)

  * ``hash_join`` — both sides large: explicit partitioned hash join. We add a
    stable ``__bucket = hash(key) % B`` column to both sides, align schemas,
    union, ``groupby(__bucket)`` and pandas-merge each bucket. All blocks stay
    ARROW until the per-bucket merge: sort-shuffling pandas object-dtype
    blocks is ~7× slower than Arrow blocks (measured 16.4s vs 2.3s — README
    "Performance lessons"), and the join key is built with vectorized Arrow
    kernels + pandas' C siphash, not a per-row Python loop. Hot keys are
    handled by callers pre-aggregating before the join (canonicalize.py).

    Ray 2.49's native ``Dataset.join`` exists but chokes on the zero-column
    empty blocks that ``groupby().aggregate()`` emits ("No match for FieldRef"
    in pyarrow acero), so the portable plan is the default; pass
    ``use_native=True`` for inputs guaranteed free of empty blocks.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

# Sentinel for NULL key components in the bucket key: never a cast output of
# real data (contains control chars), and identical on both sides so null keys
# co-locate; the pandas merge inside the bucket then applies its own NaN-key
# semantics.
_NULL_KEY = "\x01\x00N\x01"


def _as_pa_type(t) -> pa.DataType:
    """Normalize a Ray Schema type to a pyarrow DataType.

    Datasets whose blocks are pandas (e.g. a prior map_groups output) report
    PYTHON types (str/int/object) in ``schema().types``; map them to Arrow so
    schema alignment works regardless of upstream block format."""
    if isinstance(t, pa.DataType):
        return t
    py_map = {str: pa.string(), int: pa.int64(), float: pa.float64(), bool: pa.bool_()}
    if t in py_map:
        return py_map[t]
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError):
        # object-dtype pandas columns: strings in every caller of this join
        return pa.string()


def _bucket_hash(key: pa.Array, num_partitions: int) -> np.ndarray:
    """Vectorized stable bucket ids for a string key array.

    pandas' ``hash_array`` is a C-implemented SipHash over the object array
    with a FIXED key — deterministic across processes (unlike builtin
    ``hash``) and no per-row Python bytecode (unlike a crc32 genexp).

    ``categorize=False`` is REQUIRED for correctness, not a tuning choice:
    the default categorize path factorizes through a C string table that
    truncates at embedded NUL bytes, so composite keys (joined with the
    ``\\x00`` separator) that share a prefix collapse into one category
    whose hash is taken from whichever full value was seen FIRST — the same
    key then lands in different buckets on the two join sides and matching
    rows silently never meet (observed: a 2-column self join returned 131
    of 572 expected rows). With categorize=False every element is hashed
    from its own full bytes — verified value-stable against per-element
    hashing.
    """
    np_keys = key.combine_chunks().to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np_keys, categorize=False)
    return (h % np.uint64(num_partitions)).astype(np.int64)


def _schema_autocache(ds: "ray.data.Dataset"):
    """(ds, schema) without a partial execution of ``ds``.

    ``Dataset.schema()`` on a plan whose schema isn't statically known
    EXECUTES the lineage up to the first output block and then cancels the
    tasks still in flight. Neither half is safe: the probe's work is NOT
    cached (the join re-executes the lineage — for a shuffle-rooted side
    the first block needs the WHOLE exchange, measured 2.4× on an aggregate
    side), and on Ray 2.49 cancelling a task whose arguments are still
    being resolved can trip a core reference-count check that aborts the
    driver process (``reference_count.cc`` "submitted_task_ref_count > 0",
    ``task_manager.cc`` "Tried to complete task that was not pending").
    So statically-known schemas pass through untouched and every other
    plan materializes FIRST: its one execution is cached for the caller,
    the schema reads off the materialized blocks, and no task is
    cancelled. The callers (joins) consume the whole side anyway."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is not None:
        return ds, sch
    ds = ds.materialize()
    return ds, ds.schema()


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: Iterable[str],
    *,
    how: str = "inner",
    num_partitions: int | None = None,
    use_native: bool = False,
    compact_output: bool = True,
) -> "ray.data.Dataset":
    """Hash-partitioned join of two Datasets on equal column names.

    ``num_partitions`` defaults to the cluster-sized block count
    (``_compact_blocks()`` — min(64, max(8, CPUs))) so the hot join path
    (CC rounds, PageRank, entity linking) scales with the cluster instead
    of a fixed constant; pass an explicit value to pin it.

    ``compact_output`` re-batches the per-group merge output through an
    identity ``map_batches`` (NO shuffle — adjacent tiny blocks coalesce
    locally as the stream is re-batched; oversize outputs still split at
    the DataContext block-size cap). The group merge emits one block per
    bucket-slice, so chained joins otherwise fragment into hundreds of
    near-empty blocks whose fixed per-block cost dominates every
    downstream sort/groupby (measured: curation S4 span rewrite over a
    3-join lineage, 13.1 s → 0.5 s at 500 docs; block count 258 → 1).
    At 100 TB the same fragmentation shows up as object-store metadata and
    scheduler pressure — coalescing at the join boundary is the scale
    behavior, not just the small-corpus fix."""
    if num_partitions is None:
        from .canonicalize import _compact_blocks

        num_partitions = _compact_blocks()
    on = list(on)
    if use_native and hasattr(left, "join"):
        return left.join(right, join_type=how, num_partitions=num_partitions, on=tuple(on))

    left, lsch = _schema_autocache(left)
    right, rsch = _schema_autocache(right)
    if lsch is None or rsch is None:
        # Ray leaves a side with no rows (a filter dropped them all) with no
        # blocks and so no schema: the result is the other side's rows where
        # ``how`` keeps its unmatched rows, else empty. The missing side's
        # columns are unknown, so they are absent rather than null.
        if how in ("left", "outer") and lsch is not None:
            return left
        if how in ("right", "outer") and rsch is not None:
            return right
        sch = lsch or rsch
        if sch is None:
            return left
        return ray.data.from_arrow(pa.table(
            {n: pa.nulls(0, _as_pa_type(t)) for n, t in zip(sch.names, sch.types)}))
    left_cols = [c for c in lsch.names if not c.startswith("__")]
    right_cols = [c for c in rsch.names if not c.startswith("__")]
    all_cols = list(dict.fromkeys(left_cols + right_cols))  # stable order
    types: dict[str, pa.DataType] = {}
    for name, typ in list(zip(lsch.names, lsch.types)) + list(zip(rsch.names, rsch.types)):
        t = _as_pa_type(typ)
        cur = types.get(name)
        # prefer a concrete type over null (an all-null column infers as
        # type null, which the Arrow join kernel rejects for non-key fields)
        if cur is None or (pa.types.is_null(cur) and not pa.types.is_null(t)):
            types[name] = t

    def _pad(n: int, typ: pa.DataType) -> pa.Array:
        """Zero-valued filler for the OTHER side's columns (never read for
        these rows — merge selects each side's own columns only). Padding
        with NULLS instead corrupts data: Ray's sort can route blocks
        through pandas, where int64-with-nulls becomes float64 and any
        value > 2^53 (e.g. 63-bit hashes) silently loses low bits."""
        if pa.types.is_integer(typ) or pa.types.is_floating(typ):
            return pa.array(np.zeros(n, dtype=np.int64)).cast(typ)
        if pa.types.is_string(typ) or pa.types.is_large_string(typ):
            return pa.array([""] * n, typ)
        if pa.types.is_boolean(typ):
            return pa.array(np.zeros(n, dtype=bool))
        if pa.types.is_timestamp(typ) or pa.types.is_date(typ):
            return pa.array(np.zeros(n, dtype=np.int64)).cast(typ)
        if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
            return pa.array([b""] * n, typ)
        return pa.nulls(n, typ)  # exotic types keep nulls (lists etc.)

    def _empty() -> pa.Table:
        cols = {c: pa.nulls(0, types[c]) for c in all_cols}
        cols["__side"] = pa.nulls(0, pa.string())
        cols["__bucket"] = pa.nulls(0, pa.int64())
        return pa.table(cols)

    def prepare(tag: str, keep: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or not set(on) <= set(t.column_names):
                return _empty()
            n = t.num_rows
            cols: dict[str, pa.Array] = {}
            for c in all_cols:  # align schemas so union blocks concat cleanly
                if c in keep and c in t.column_names:
                    col = t.column(c)
                    if not col.type.equals(types[c]):
                        col = pc.cast(col, types[c])
                    cols[c] = col
                else:
                    cols[c] = _pad(n, types[c])
            parts = [
                pc.fill_null(pc.cast(t.column(k), pa.string()), _NULL_KEY) for k in on
            ]
            key = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(*parts, "\x00")
            cols["__side"] = pa.array(np.repeat(tag, n), pa.string())
            cols["__bucket"] = pa.array(_bucket_hash(key, num_partitions), pa.int64())
            return pa.table(cols)

        return fn

    lt = left.map_batches(prepare("l", left_cols), batch_format="pyarrow")
    rt = right.map_batches(prepare("r", right_cols), batch_format="pyarrow")

    # per-bucket join runs on the Arrow C++ hash-join kernel (pyarrow
    # Table.join): ~2× faster than a pandas merge on string keys (15× for
    # left joins against a small side — measured 400k×400k) and the output
    # blocks stay Arrow, so downstream shuffles skip the object-dtype slow
    # path. Nulls in join keys follow SQL semantics (never match) — the
    # pandas merge treated NaN keys as equal, which no SQL oracle does.
    _PA_HOW = {"inner": "inner", "left": "left outer",
               "right": "right outer", "outer": "full outer"}
    pa_how = _PA_HOW.get(how, how)
    # the Arrow kernel rejects null-typed NON-KEY fields (a column that is
    # all-null in BOTH inputs); those groups take the pandas merge fallback
    arrow_ok = not any(
        pa.types.is_null(types[c]) for c in all_cols if c not in on
    )

    def _conform(t: pa.Table, cols: list[str]) -> pa.Table:
        # a group whose rows are all one side carries the other side's
        # columns all-null; the shuffle can re-infer those as type null,
        # which the join kernel rejects — cast back to the declared types
        return pa.table({
            c: (t.column(c) if t.column(c).type.equals(types[c])
                else pc.cast(t.column(c), types[c]))
            for c in cols
        })

    def merge(group: pa.Table) -> pa.Table:
        side = group.column("__side")
        lg = _conform(group.filter(pc.equal(side, "l")), left_cols)
        rg = _conform(group.filter(pc.equal(side, "r")), right_cols)
        if arrow_ok:
            return lg.join(rg, keys=on, join_type=pa_how)
        out = lg.to_pandas().merge(rg.to_pandas(), on=on, how=how)
        return pa.Table.from_pandas(out, preserve_index=False)

    out = lt.union(rt).groupby("__bucket").map_groups(merge, batch_format="pyarrow")
    if compact_output:
        out = out.map_batches(lambda t: t, batch_format="pyarrow",
                              batch_size=32768)
    return out


def skewed_hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    *,
    hot_row_threshold: int = 100_000,
    max_hot_keys: int = 4096,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """INNER hash join with explicit hot-key splitting, for probe sides whose
    rows can NOT be pre-aggregated below the join (payload columns must
    survive row-for-row). A plain hash shuffle routes every row of a hot key
    to ONE partition — at 10^12 documents a head-domain URL or stopword
    entity makes that partition the job's critical path. Plan:

      1. EXACT per-key counts of the probe (left) side via the partial-
         combiner count aggregate (16 B/distinct-key-per-batch exchange —
         never row-sized). Keys with count ≥ ``hot_row_threshold`` are hot;
         there are at most rows/threshold of them, and ``max_hot_keys``
         (heaviest-first, deterministic id tiebreak) caps the driver set.
      2. The hot slice of the BUILD (right) side — bounded by
         |hot keys| × per-key build rows, i.e. ~|hot keys| rows for a
         dimension — is collected once and ``ray.put`` broadcast; hot probe
         rows join map-side per batch with NO shuffle, so a key with 10^9
         rows costs each task only its own batch.
      3. Cold rows from both sides take the ordinary partitioned
         :func:`hash_join`; results union. The split is correctness-neutral
         (any partition of keys yields the same inner join) — detection
         tuning only moves rows between plans.

    Single join column, inner only — the shapes the hot-key hazard actually
    has (fact×dimension attach). Falls back to plain ``hash_join`` when no
    key crosses the threshold."""
    from .canonicalize import pre_aggregated_count

    # a NULL key never joins, so it is never hot (``is_in`` and the pandas
    # merge below would both match null to null)
    counts = pre_aggregated_count(
        left.select_columns([on]), [on], "__n").map_batches(
        lambda t: t.filter(
            pc.greater_equal(pc.cast(t.column("__n"), pa.int64()),
                             hot_row_threshold)).drop_null(),
        batch_format="pyarrow")
    hot_rows = counts.take_all()
    if not hot_rows:
        return hash_join(left, right, on=(on,), num_partitions=num_partitions)
    hot_rows.sort(key=lambda r: (-int(r["__n"]), r[on]))
    hot = set(r[on] for r in hot_rows[:max_hot_keys])

    left, lsch = _schema_autocache(left)
    right, rsch = _schema_autocache(right)
    left_cols = [c for c in lsch.names if not c.startswith("__")]
    right_cols = [c for c in rsch.names if not c.startswith("__")]
    out_cols = left_cols + [c for c in right_cols if c != on]
    out_types = {}
    for name, typ in (list(zip(rsch.names, rsch.types))
                      + list(zip(lsch.names, lsch.types))):  # left wins on dup
        out_types[name] = _as_pa_type(typ)
    out_schema = pa.schema([(c, out_types[c]) for c in out_cols])

    def _in_hot(t: pa.Table, invert: bool) -> pa.Table:
        mask = pc.is_in(t.column(on), value_set=pa.array(list(hot)))
        return t.filter(pc.invert(mask) if invert else mask)

    hot_ref = ray.put(hot)
    build_chunks = [b for b in right.map_batches(
        lambda t: _in_hot(t, invert=False), batch_format="pyarrow")
        .iter_batches(batch_size=65536, batch_format="pyarrow")]
    build_hot = (pa.concat_tables(build_chunks, promote_options="default")
                 if build_chunks
                 else pa.schema([(c, out_types[c]) for c in right_cols])
                 .empty_table())
    build_ref = ray.put(build_hot.to_pandas())

    def mapside(t: pa.Table) -> pa.Table:
        h = ray.get(hot_ref)
        mask = pc.is_in(t.column(on), value_set=pa.array(list(h)))
        t = t.filter(mask)
        if t.num_rows == 0:
            return out_schema.empty_table()
        merged = t.to_pandas().merge(ray.get(build_ref), on=on, how="inner")
        return pa.Table.from_pandas(
            merged[out_cols], preserve_index=False).cast(out_schema)

    hot_joined = left.map_batches(mapside, batch_format="pyarrow")

    cold_left = left.map_batches(lambda t: _in_hot(t, invert=True),
                                 batch_format="pyarrow").materialize()
    if cold_left.count() == 0:
        return hot_joined
    cold_right = right.map_batches(lambda t: _in_hot(t, invert=True),
                                   batch_format="pyarrow")
    cold_joined = hash_join(cold_left, cold_right, on=(on,),
                            num_partitions=num_partitions).map_batches(
        lambda t: t.select(out_cols).cast(out_schema),
        batch_format="pyarrow")
    return hot_joined.union(cold_joined)


def bucketed_join(
    dir_a: str,
    dir_b: str,
    on: Iterable[str],
    *,
    how: str = "inner",
    columns_a: list[str] | None = None,
    columns_b: list[str] | None = None,
) -> "ray.data.Dataset":
    """STORAGE-PARTITIONED join of two tables written by
    ``materialize.write_partitioned`` on the SAME key with the SAME
    partition count — the shuffle-free join (Spark SPJ / Iceberg bucketed
    join analog). Partition identity is ``crc32(key) % n`` on both sides,
    so equal keys share a partition index by construction and the join is
    ONE task per partition reading ``part=i`` from each root and merging
    locally: zero exchange, no build-side broadcast — at 100 TB the only
    bytes that move are the column-pruned partition files themselves.
    Refuses mismatched bucket counts or incomplete tables (either would
    silently drop matches)."""
    import glob as _glob
    import os

    import pyarrow.parquet as _pq

    from ..state.manifest import table_complete

    def _parts(d: str) -> dict[int, str]:
        out = {}
        for p in _glob.glob(os.path.join(d, "part=*")):
            out[int(os.path.basename(p).split("=", 1)[1])] = p
        return out

    for d in (dir_a, dir_b):
        if not table_complete(d):
            raise ValueError(f"bucketed_join: {d} has no completeness "
                             "marker — refusing a possibly torn table")
    parts_a, parts_b = _parts(dir_a), _parts(dir_b)
    n_a = max(parts_a) + 1 if parts_a else 0
    n_b = max(parts_b) + 1 if parts_b else 0
    if n_a != n_b:
        raise ValueError(
            f"bucketed_join: bucket counts differ ({n_a} vs {n_b}) — "
            "co-partitioning does not hold; recompact one side")
    on = list(on)

    def _read(path: str | None, columns: list[str] | None) -> pd.DataFrame:
        if path is None:
            return pd.DataFrame()
        cols = None if columns is None else list(dict.fromkeys(columns + on))
        return _pq.read_table(path, columns=cols).to_pandas()

    def join_part(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for i in batch["part"].tolist():
            a = _read(parts_a.get(i), columns_a)
            b = _read(parts_b.get(i), columns_b)
            if a.empty or (b.empty and how == "inner"):
                continue
            a = a.drop(columns=[c for c in ("part",) if c in a], errors="ignore")
            b = b.drop(columns=[c for c in ("part",) if c in b], errors="ignore")
            frames.append(a.merge(b, on=on, how=how))
        if not frames:
            return pd.DataFrame()
        return pd.concat(frames, ignore_index=True)

    parts = ray.data.from_items([{"part": i} for i in range(n_a)])
    return parts.map_batches(join_part, batch_format="pandas", batch_size=1)
