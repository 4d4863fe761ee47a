"""Event-stream / window query family (split from pipelines/queries.py — its module
docstring holds the catalogue conventions; the queries()/oracle_sql()
catalogue there re-exports every entry in the driver-stable order)."""

from __future__ import annotations

import math
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ._qcommon import (
    _ALNUM, _cents, _gagg, _rp,
)



def q_events_hourly(sf_dir: str):
    """§2.9 streaming analog: tumbling 1-hour event-time window as a grouped
    aggregate over floor(epoch/3600) (ordering-free, key carried per row)."""
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        df = pd.DataFrame(
            {
                "window_id": us // 3_600_000_000,
                "event_type": t.column("event_type").to_pylist(),
                "value_cents": _cents(np.asarray(t.column("value"))),
            }
        )
        g = df.groupby(["window_id", "event_type"], as_index=False).agg(
            n_events=("value_cents", "size"), value_cents=("value_cents", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ..stages.canonicalize import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["window_id", "event_type"],
        Sum("n_events", alias_name="n_events"),
        Sum("value_cents", alias_name="value_cents"),
    )


def q_user_event_stats(sf_dir: str):
    """A6 running-aggregate analog: per-(user, type) count + exact max."""
    ds = _rp(sf_dir, "events", ["user_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": t.column("user_id").to_pylist(),
                "event_type": t.column("event_type").to_pylist(),
                "max_value_cents": _cents(np.asarray(t.column("value"))),
            }
        )
        g = df.groupby(["user_id", "event_type"], as_index=False).agg(
            n=("max_value_cents", "size"), max_value_cents=("max_value_cents", "max")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ..stages.canonicalize import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "event_type"],
        Sum("n", alias_name="n"),
        Max("max_value_cents", alias_name="max_value_cents"),
    )


def q_props_stats(sf_dir: str):
    """§2.8 JSON decode: parse the events.props JSON column, aggregate the
    extracted integer (exact) — vectorized per batch with the stdlib parser."""
    import json as _json

    ds = _rp(sf_dir, "events", ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        ks = [int(_json.loads(p or "{}").get("k", 0)) for p in t.column("props").to_pylist()]
        df = pd.DataFrame({"event_type": t.column("event_type").to_pylist(), "sum_k": ks})
        g = df.groupby("event_type", as_index=False).agg(
            n=("sum_k", "size"), sum_k=("sum_k", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n"), Sum("sum_k", alias_name="sum_k"))
    )


def q_top_event_per_user(sf_dir: str):
    """Top-1-per-group (window-function analog): each user's max-value event,
    deterministic tie-break on event_id. Grouped by COARSE hash buckets
    (user_id % P), exact per-user groupby in pandas inside — Ray's map_groups
    costs ~80μs per group, so one-Ray-group-per-user makes per-group overhead
    dominate at web-scale user cardinality."""
    ds = _rp(sf_dir, "events", ["user_id", "event_id", "value"])
    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(uid % P, pa.int64()))

    def part_top1(g: pd.DataFrame) -> pd.DataFrame:
        # (value desc, event_id asc) is a total order per user → head(1) exact
        g = g.sort_values(["value", "event_id"], ascending=[False, True])
        out = g.groupby("user_id", as_index=False, sort=False).head(1)
        return out[["user_id", "event_id"]]

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_top1, batch_format="pandas")
    )


def q_user_event_seq(sf_dir: str):
    """ORDERED per-group aggregation (SQL string_agg ... ORDER BY): each
    user's full event-type sequence in (ts, event_id) order — the behavioral
    'clickstream signature' a sessionization pipeline feeds to sequence
    models. Ordering is a TOTAL order (event_id unique), so the output is
    deterministic at any parallelism. Plan: coarse user buckets (full rows
    ship once — an ordered concat is not pre-reducible), per-user sort +
    join inside the bucket. Output: (user_id, n_events, seq)."""
    ds = _rp(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(uid % P, pa.int64()))

    def part_seq(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        out = g.groupby("user_id", as_index=False).agg(
            n_events=("event_id", "size"),
            seq=("event_type", lambda s: ">".join(s)),
        )
        out["user_id"] = out["user_id"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out[["user_id", "n_events", "seq"]]

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_seq, batch_format="pandas")
    )


_TOPK_PER_GROUP = 3


def q_top3_events_per_user(sf_dir: str):
    """Top-K-per-group (K=3) with a PER-BATCH COMBINER — the shape
    ``top_event_per_user`` (K=1) lacks: every batch first reduces to ≤ K
    rows per user, so the shuffle ships O(users·K·blocks-touched) rows, not
    the whole fact table; the coarse-bucketed final pass re-ranks exactly.
    Ordering is (value DESC, event_id ASC) — a total order per user, so the
    result is deterministic and the combiner is lossless (any global top-K
    row is a batch top-K row). Output: (user_id, rk, event_id, value_cents)."""
    ds = _rp(sf_dir, "events", ["user_id", "event_id", "value"])
    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()
    K = _TOPK_PER_GROUP

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["value", "event_id"], ascending=[False, True])
        out = df.groupby("user_id", sort=False).head(K).copy()
        out["__part"] = (out["user_id"].to_numpy(dtype=np.int64)) % P
        return out[["user_id", "event_id", "value", "__part"]]

    def part_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"], ascending=[False, True])
        out = g.groupby("user_id", sort=False).head(K).copy()
        out["rk"] = out.groupby("user_id", sort=False).cumcount() + 1
        out["value_cents"] = _cents(out["value"].to_numpy())
        return out[["user_id", "rk", "event_id", "value_cents"]].astype("int64")

    return (
        ds.map_batches(partial_topk, batch_format="pandas")
        .groupby("__part")
        .map_groups(part_topk, batch_format="pandas")
    )


def q_click_after_purchase(sf_dir: str):
    """As-of join (custom operator, stages/asof.py): each click matched to the
    user's latest prior purchase; inner (matched-only) output."""
    from ..stages.asof import asof_join

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "click")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    joined = asof_join(clicks, purchases, on="user_id", ts_col="ts")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "event_id_r" not in df.columns:
            return pd.DataFrame({"click_id": pd.Series([], dtype="int64"),
                                 "purchase_id": pd.Series([], dtype="int64")})
        out = df.dropna(subset=["event_id_r"])
        return pd.DataFrame(
            {"click_id": out["event_id"].astype("int64"),
             "purchase_id": out["event_id_r"].astype("int64")}
        )

    return joined.map_batches(finish, batch_format="pandas")


_FUNNEL_STEPS = ("view", "click", "purchase")


def q_user_funnel(sf_dir: str):
    """Ordered-step funnel (view → click → purchase by strictly increasing
    first-occurrence time): per-(user, step) Min-timestamp partial
    aggregation collapses the stream to ≤ |steps| rows per user BEFORE the
    only shuffle, then a per-user width-|steps| pivot evaluates step order
    row-locally and a global integer sum yields one row. User cardinality
    never reaches the driver."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", ["user_id", "event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        types = t.column("event_type").to_pylist()
        mask = pa.array([x in _FUNNEL_STEPS for x in types], pa.bool_())
        t = t.filter(mask)
        df = pd.DataFrame(
            {"user_id": pc.cast(t.column("user_id"), pa.int64()).to_numpy(),
             "event_type": t.column("event_type").to_pylist(),
             "ts_us": pc.cast(t.column("ts"), pa.int64()).to_numpy()}
        )
        g = df.groupby(["user_id", "event_type"], as_index=False)["ts_us"].min()
        return pa.Table.from_pandas(g, preserve_index=False)

    firsts = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "event_type"], Min("ts_us", alias_name="ts_us"),
    )

    def per_user_flags(g: pa.Table) -> pa.Table:
        m = dict(zip(g.column("event_type").to_pylist(),
                     pc.cast(g.column("ts_us"), pa.int64()).to_pylist()))
        v, c, p = (m.get(s) for s in _FUNNEL_STEPS)
        f1 = int(v is not None)
        f2 = int(f1 and c is not None and v < c)
        f3 = int(f2 and p is not None and c < p)
        return pa.table({"n_view": pa.array([f1], pa.int64()),
                         "n_view_click": pa.array([f2], pa.int64()),
                         "n_view_click_purchase": pa.array([f3], pa.int64())})

    agg = firsts.groupby("user_id").map_groups(per_user_flags, batch_format="pyarrow")
    out = grouped_aggregate(
        agg.map_batches(
            lambda t: t.append_column("g", pa.array(np.zeros(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["g"],
        Sum("n_view", alias_name="n_view"),
        Sum("n_view_click", alias_name="n_view_click"),
        Sum("n_view_click_purchase", alias_name="n_view_click_purchase"),
    )
    return out.map_batches(
        lambda t: t.drop_columns(["g"]), batch_format="pyarrow")


def q_user_sessions(sf_dir: str):
    """Gap-based sessionization (streaming-shaped op, SURVEY.md §2.9 analog):
    events partitioned by user, sorted by ts within the group, new session
    when the gap exceeds 1h. n_sessions = 1 + count(gap > 1h).

    PER-TASK BOUND (inherent to gap sessions — the full ordered per-user
    history must meet in one place): one bucket task holds ~corpus/P plus
    the entirety of its largest user. A user owning 50% of all events
    completes exactly (tests/test_skew_stress.py hot-user probe) but that
    task's heap is ∝ that user's volume; the scale remedy for adversarial
    key mass (bot traffic) is an upstream per-user event cap or a
    segmented-reduce (chunk-sessionize + boundary-gap merge), not a bigger
    bucket count."""
    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(uid % P, pa.int64()))

    def part_sessions(g: pd.DataFrame) -> pd.DataFrame:
        # coarse hash-bucket group; exact per-user sessionization inside
        # (one Ray group per USER would pay ~80μs/group at web-scale)
        g = g.sort_values(["user_id", "ts"])
        gap = g.groupby("user_id", sort=False)["ts"].diff().dt.total_seconds() > 3600
        out = (
            g.assign(__gap=gap)
            .groupby("user_id", as_index=False, sort=False)
            .agg(n_events=("ts", "size"), n_sessions=("__gap", "sum"))
        )
        out["n_sessions"] = (out["n_sessions"] + 1).astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out[["user_id", "n_events", "n_sessions"]]

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_sessions, batch_format="pandas")
    )


def q_user_sessions_segmented(sf_dir: str, *, chunk_s: int = 6 * 3600):
    """Segmented-reduce sessionization — the BOT-PROOF plan that removes
    q_user_sessions' per-task bound (one user's full history in one task):

    Phase 1 buckets events by (user_id, ts // chunk_s) — a group is one
    user's events within ONE 6-hour window, so task heap is bounded by
    per-user-per-window volume however large the user's lifetime history.
    Each chunk reduces to one summary row (n_events, internal session
    count, first/last ts). Phase 2 merges the per-user chunk summaries
    (time-ordered, one row per ACTIVE chunk — tiny): a session spans a
    chunk boundary iff next.first_ts − prev.last_ts ≤ 3600 s, so
    n_sessions = Σ chunk_sessions − #merged_boundaries. Identical result
    and shared DuckDB oracle with q_user_sessions; equality, hot-user and
    boundary-merge cases pinned in tests. The classic segmented-scan
    decomposition of a gap predicate (only the chunk-edge events interact
    across chunks)."""
    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()
    gap_us = 3600 * 1_000_000
    chunk_us = chunk_s * 1_000_000

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        ts_us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        chunk = ts_us // chunk_us
        part = ((uid.astype(np.uint64) * np.uint64(1000003)
                 + chunk.astype(np.uint64)) % np.uint64(P)).astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "__chunk": pa.array(chunk, pa.int64()),
            "__ts_us": pa.array(ts_us, pa.int64()),
            "__part": pa.array(part, pa.int64()),
        })

    def part_chunks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__chunk", "__ts_us"])
        brk = (g.groupby(["user_id", "__chunk"], sort=False)["__ts_us"]
               .diff() > gap_us)
        out = (g.assign(__brk=brk)
               .groupby(["user_id", "__chunk"], as_index=False)
               .agg(n_events=("__ts_us", "size"), breaks=("__brk", "sum"),
                    first_ts=("__ts_us", "min"), last_ts=("__ts_us", "max")))
        out["sessions"] = out["breaks"].astype("int64") + 1
        out["n_events"] = out["n_events"].astype("int64")
        return out[["user_id", "__chunk", "n_events", "sessions",
                    "first_ts", "last_ts"]]

    summaries = (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_chunks, batch_format="pandas")
    )

    def add_upart(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(uid % P, pa.int64()))

    def merge_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "__chunk"])
        prev_last = g.groupby("user_id", sort=False)["last_ts"].shift()
        merged = ((g["first_ts"] - prev_last) <= gap_us).fillna(False)
        out = (g.assign(__m=merged)
               .groupby("user_id", as_index=False)
               .agg(n_events=("n_events", "sum"), sess=("sessions", "sum"),
                    m=("__m", "sum")))
        out["n_sessions"] = (out["sess"] - out["m"]).astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out[["user_id", "n_events", "n_sessions"]]

    return (
        summaries.map_batches(add_upart, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(merge_user, batch_format="pandas")
    )


def q_events_sliding(sf_dir: str):
    """Hopping (sliding) event-time window: size 2 h, hop 1 h — each event in
    exactly 2 windows (stages/windows.explode_hopping_windows), partials
    pre-aggregated per batch so the shuffle carries k× aggregates."""
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.windows import explode_hopping_windows

    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])
    exploded = explode_hopping_windows(ds, "ts", size_s=7200, hop_s=3600)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "window_id": pc.cast(t.column("window_id"), pa.int64()).to_numpy(),
                "event_type": t.column("event_type").to_pylist(),
                "value_cents": _cents(np.asarray(t.column("value"))),
            }
        )
        g = df.groupby(["window_id", "event_type"], as_index=False).agg(
            n_events=("value_cents", "size"), value_cents=("value_cents", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return grouped_aggregate(
        exploded.map_batches(partial, batch_format="pyarrow"),
        ["window_id", "event_type"],
        Sum("n_events", alias_name="n_events"),
        Sum("value_cents", alias_name="value_cents"),
    )


def q_running_total(sf_dir: str):
    """Cumulative window function: per-user running sum of value ordered by
    (ts, event_id). Coarse hash buckets (user % P), exact per-user cumsum in
    pandas inside — same skew discipline as q_top_event_per_user."""
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        out = pa.table(
            {
                "user_id": pc.cast(t.column("user_id"), pa.int64()),
                "event_id": pc.cast(t.column("event_id"), pa.int64()),
                "us": pc.cast(t.column("ts"), pa.int64()),
                "value_cents": pa.array(_cents(np.asarray(t.column("value"))), pa.int64()),
            }
        )
        return out.append_column("__part", pa.array(uid % P, pa.int64()))

    def part_cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        g["running_cents"] = g.groupby("user_id", sort=False)["value_cents"].cumsum()
        return g[["event_id", "running_cents"]].astype("int64")

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_cumsum, batch_format="pandas")
    )


def q_purchase_clicks_window(sf_dir: str):
    """Banded interval join (stages/windows.interval_join): EVERY click within
    24 h after a same-user purchase — the all-matches counterpart of the as-of
    join in q_click_after_purchase."""
    from ..stages.windows import interval_join

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "click")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    joined = interval_join(
        clicks, purchases, on="user_id", ts_col="ts", window_s=86400
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"click_id": pd.Series([], dtype="int64"),
                                 "purchase_id": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"click_id": df["event_id"].astype("int64"),
             "purchase_id": df["event_id_r"].astype("int64")}
        )

    return joined.map_batches(finish, batch_format="pandas")


def q_event_gaps(sf_dir: str):
    """Per-group lag(): mean inter-event gap per user — coarse hash-bucket
    groupby (never one Ray group per user), exact per-user sorted diff inside;
    sums in integer microseconds so the aggregate is order-free exact."""
    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    from ..stages.canonicalize import _compact_blocks

    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(uid % P, pa.int64()))

    def part_gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        # exact integer microseconds (pandas 2.x preserves Arrow's us unit;
        # normalize explicitly rather than assuming ns)
        g["__us"] = g["ts"].astype("datetime64[us]").astype("int64")
        out = (
            g.assign(__gap=g.groupby("user_id", sort=False)["__us"].diff())
            .groupby("user_id", as_index=False, sort=False)
            .agg(n_gaps=("__gap", "count"), sum_gap_us=("__gap", "sum"))
        )
        out["n_gaps"] = out["n_gaps"].astype("int64")
        out["sum_gap_us"] = out["sum_gap_us"].fillna(0).astype("int64")
        return out[["user_id", "n_gaps", "sum_gap_us"]]

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_gaps, batch_format="pandas")
    )


def q_cumulative_distinct_users(sf_dir: str):
    """Running COUNT(DISTINCT) over time — the incremental-metrics shape
    ('total unique users to date' per day) that a naive per-day distinct
    recomputes quadratically. Exact linear plan: reduce each user to their
    FIRST day (per-batch min partials → one bucketed Min aggregate — the
    only fact-scale work), count firsts per day (narrow combiner), then a
    prefix sum over the TIMELINE-sized day table (bounded by calendar days,
    not data — safe to finish on the driver at any corpus size). Days are
    exact integer epoch days so the SQL hash comparison is exact."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        days = t.column("ts").to_numpy(zero_copy_only=False).astype(
            "datetime64[D]").astype(np.int64)
        df = pd.DataFrame({"user_id": pc.cast(t.column("user_id"), pa.int64()).to_numpy(),
                           "day": days})
        g = df.groupby("user_id", as_index=False)["day"].min()
        return pa.Table.from_pandas(g, preserve_index=False)

    first_day = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"], Min("day", alias_name="day"),
    )

    def day_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "day" not in t.column_names:
            return pa.table({"day": pa.array([], pa.int64()),
                             "n_new": pa.array([], pa.int64())})
        df = pd.DataFrame({"day": pc.cast(t.column("day"), pa.int64()).to_numpy()})
        g = df.groupby("day", as_index=False).size().rename(columns={"size": "n_new"})
        return pa.Table.from_pandas(g, preserve_index=False)

    per_day = grouped_aggregate(
        first_day.map_batches(day_counts, batch_format="pyarrow"),
        ["day"], Sum("n_new", alias_name="n_new"),
    )
    rows = sorted(per_day.take_all(), key=lambda r: r["day"])  # timeline-sized
    days = np.array([r["day"] for r in rows], dtype=np.int64)
    n_new = np.array([r["n_new"] for r in rows], dtype=np.int64)
    return pa.table({"day": pa.array(days, pa.int64()),
                     "n_new": pa.array(n_new, pa.int64()),
                     "cum_users": pa.array(np.cumsum(n_new), pa.int64())})


def q_snapshot_delta(sf_dir: str):
    """Incremental snapshot diff — the resumable-pipeline primitive that
    classifies every key as added / removed / changed between two table
    versions (derived deterministically from ``orders``: 'old' drops keys
    ≡3 mod 10, 'new' drops keys ≡7 and bumps the price of keys ≡5). Plan:
    ONE read, each row emits its side-tagged (key, side, rowhash) rows, one
    narrow int-only groupby classifies — no join, unchanged keys are
    filtered before any driver materialization. rowhash is the exact
    integer cents*4+status_code, so SQL computes it bit-identically."""
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])

    def sides(t: pa.Table) -> pa.Table:
        k = pc.cast(t.column("o_orderkey"), pa.int64()).to_numpy()
        cents = np.floor(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        st = np.asarray(t.column("o_orderstatus").to_pylist())
        sc = np.where(st == "F", 0, np.where(st == "O", 1, 2)).astype(np.int64)
        h = cents * 4 + sc
        h_new = (cents + np.where(k % 10 == 5, 100, 0)) * 4 + sc
        old_m = k % 10 != 3
        new_m = k % 10 != 7
        return pa.table(
            {"o_orderkey": pa.array(
                np.concatenate([k[old_m], k[new_m]]), pa.int64()),
             "side": pa.array(
                np.concatenate([np.full(old_m.sum(), 1, np.int64),
                                np.full(new_m.sum(), 2, np.int64)]), pa.int64()),
             "h": pa.array(np.concatenate([h[old_m], h_new[new_m]]), pa.int64())}
        )

    agg = _gagg(
        ds.map_batches(sides, batch_format="pyarrow"),
        "o_orderkey",
        Count(alias_name="n"), Sum("side", alias_name="s"),
        Min("h", alias_name="hmin"), Max("h", alias_name="hmax"),
    )

    def finish(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("n"), pa.int64()).to_numpy()
        s = pc.cast(t.column("s"), pa.int64()).to_numpy()
        hmin = pc.cast(t.column("hmin"), pa.int64()).to_numpy()
        hmax = pc.cast(t.column("hmax"), pa.int64()).to_numpy()
        status = np.where(
            n == 1,
            np.where(s == 2, "added", "removed"),
            np.where(hmin != hmax, "changed", ""),
        )
        keep = status != ""
        return pa.table(
            {"o_orderkey": pa.array(
                pc.cast(t.column("o_orderkey"), pa.int64()).to_numpy()[keep],
                pa.int64()),
             "status": pa.array(status[keep], pa.string())}
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_events_pivot(sf_dir: str):
    """PIVOT: one row per user, one count column per event type — conditional
    partial sums map-side, single groupby(user_id) of already-narrow rows."""
    ds = _rp(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"user_id": t.column("user_id").to_pylist(),
             "event_type": t.column("event_type").to_pylist()}
        )
        for et in _EVENT_TYPES:
            df[f"n_{et}"] = (df["event_type"] == et).astype("int64")
        g = df.drop(columns=["event_type"]).groupby("user_id", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return _gagg(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id",
        *[Sum(f"n_{et}", alias_name=f"n_{et}") for et in _EVENT_TYPES],
    )


def q_decayed_clicks(sf_dir: str):
    """Freshness-decayed engagement score (ranking/curation primitive):
    per-user Σ value_cents >> age_days over click events, age anchored at the
    corpus max timestamp — exponential half-life decay in EXACT fixed-point
    (right shift == floor division by 2^age for the non-negative cents, so
    SQL replicates it bit for bit with `cents // (1 << age)`). Single pass,
    mergeable int64 partial sums per user; the anchor is one tiny Max
    aggregate. Shift capped at 62 to stay in int64 range."""
    from ..stages.canonicalize import grouped_aggregate

    _US_DAY = 86_400_000_000
    ds = _rp(sf_dir, "events", ["user_id", "event_type", "ts", "value"])
    anchor = int(
        ds.select_columns(["ts"])
        .map_batches(lambda t: pa.table({"us": pc.cast(t.column("ts"), pa.int64())}),
                     batch_format="pyarrow")
        .aggregate(Max("us"))["max(us)"]
    )  # anchor in integer µs — same unit as the per-row cast below

    def partial(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("event_type"), "click")
        t = t.filter(m)
        cents = _cents(np.asarray(t.column("value")))
        ts_us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        age = np.minimum((anchor - ts_us) // _US_DAY, 62).astype(np.int64)
        df = pd.DataFrame({"user_id": pc.cast(t.column("user_id"), pa.int64()).to_numpy(),
                           "n_clicks": np.ones(len(age), np.int64),
                           "decayed_cents": cents >> age})
        g = df.groupby("user_id", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"],
        Sum("n_clicks", alias_name="n_clicks"),
        Sum("decayed_cents", alias_name="decayed_cents"),
    )


def q_event_type_transitions(sf_dir: str):
    """Markov transition counts over per-user event sequences: consecutive
    (prev_type → next_type) pairs under the (ts, event_id) total order,
    counted globally. Coarse hash buckets (user % P) keep groups
    partition-sized regardless of per-user skew; each bucket emits its pair
    counts PRE-AGGREGATED (≤ |types|² rows per bucket), so the final exchange
    is type-vocabulary-sized however large the event log is — the sequence
    n-gram primitive behind behavior models and session LMs."""
    from ..stages.canonicalize import _compact_blocks, grouped_aggregate

    ds = _rp(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(uid % P, pa.int64()))

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        prev = g.groupby("user_id", sort=False)["event_type"].shift()
        df = pd.DataFrame({"prev_type": prev, "next_type": g["event_type"]}).dropna()
        if df.empty:
            return pd.DataFrame({"prev_type": pd.Series([], dtype="string"),
                                 "next_type": pd.Series([], dtype="string"),
                                 "n": pd.Series([], dtype="int64")})
        out = (df.groupby(["prev_type", "next_type"], as_index=False)
               .size().rename(columns={"size": "n"}))
        out["n"] = out["n"].astype("int64")
        return out

    pairs = (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_pairs, batch_format="pandas")
    )
    return grouped_aggregate(pairs, ["prev_type", "next_type"],
                             Sum("n", alias_name="n"))


def q_sliding_distinct_users(sf_dir: str):
    """Hopping-window COUNT DISTINCT — streaming unique-reach per 2 h window
    hopping hourly. Composes the constant-factor window explode (each event
    in exactly size/hop windows) with the two-level distinct plan: per-batch
    (window, user) dedup → bucketed pair-key aggregate makes pairs globally
    distinct → per-batch per-window counts → window-sized final aggregate.
    No window ever materializes its user set; the only corpus-sized exchange
    carries (window_id, user_id) int pairs."""
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.windows import explode_hopping_windows

    ds = _rp(sf_dir, "events", ["ts", "user_id"])
    exploded = explode_hopping_windows(ds, "ts", size_s=7200, hop_s=3600)

    def pair_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"window_id": pc.cast(t.column("window_id"), pa.int64()).to_numpy(),
             "user_id": pc.cast(t.column("user_id"), pa.int64()).to_numpy()}
        ).drop_duplicates()
        df["one"] = np.int64(1)
        return pa.Table.from_pandas(df, preserve_index=False)

    dpairs = grouped_aggregate(
        exploded.map_batches(pair_partial, batch_format="pyarrow"),
        ["window_id", "user_id"], Sum("one", alias_name="c"),
    )

    def count_partial(t: pa.Table) -> pa.Table:
        w = pc.cast(t.column("window_id"), pa.int64()).to_numpy()
        uniq, cnt = np.unique(w, return_counts=True)
        return pa.table({"window_id": pa.array(uniq, pa.int64()),
                         "n_users": pa.array(cnt.astype(np.int64), pa.int64())})

    return _gagg(dpairs.map_batches(count_partial, batch_format="pyarrow"),
                 "window_id", Sum("n_users", alias_name="n_users"))


def q_user_retention(sf_dir: str):
    """Cohort retention matrix: users grouped by their FIRST active day;
    n_users active again day_delta days later. The product-analytics
    staple that needs a first-occurrence reduce JOINED back to the activity
    stream. Plan: distinct (user, day) pairs (per-batch dedup + bucketed
    aggregate) → per-user Min(day) cohort table (user-, not event-, sized)
    → partitioned hash join pairs×cohorts on user → (cohort_day, delta)
    counted with per-batch partials. Every exchange is integer-keyed and
    either activity-pair- or user-sized; nothing touches the driver."""
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    ds = _rp(sf_dir, "events", ["ts", "user_id"])
    DAY_US = 86_400 * 1_000_000

    def day_pairs(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"user_id": pc.cast(t.column("user_id"), pa.int64()).to_numpy(),
             "day": pc.cast(t.column("ts"), pa.int64()).to_numpy() // DAY_US}
        ).drop_duplicates()
        df["one"] = np.int64(1)
        return pa.Table.from_pandas(df, preserve_index=False)

    ud = grouped_aggregate(
        ds.map_batches(day_pairs, batch_format="pyarrow"),
        ["user_id", "day"], Sum("one", alias_name="c"),
    ).map_batches(lambda t: t.select(["user_id", "day"]), batch_format="pyarrow")

    first = _gagg(ud, "user_id", Min("day", alias_name="day0"))
    joined = hash_join(ud, first, on=("user_id",))

    def delta_partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"cohort_day": pd.Series([], dtype="int64"),
                                 "day_delta": pd.Series([], dtype="int64"),
                                 "n_users": pd.Series([], dtype="int64")})
        out = pd.DataFrame(
            {"cohort_day": df["day0"].astype("int64"),
             "day_delta": (df["day"] - df["day0"]).astype("int64")}
        ).groupby(["cohort_day", "day_delta"], as_index=False).size()
        return out.rename(columns={"size": "n_users"}).astype("int64")

    return grouped_aggregate(
        joined.map_batches(delta_partial, batch_format="pandas"),
        ["cohort_day", "day_delta"], Sum("n_users", alias_name="n_users"),
    )


def q_events_trailing7(sf_dir: str):
    """TRAILING 7-day window per day: each calendar day's event count and
    value with the 7-day running totals ending that day — the dashboard
    smoothing query (calendar-RANGE window, distinct from the hopping
    windows in events_sliding: the frame is day-based, gaps included).
    The corpus reduces to a timeline-sized daily aggregate; the trailing
    sums then come from prefix sums + searchsorted on the sorted day axis
    (exact integers, day-6 lower bound) — no self-join, no window
    explode."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", ["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column("ts").cast(pa.int64()).to_numpy()
               // 86_400_000_000).astype(np.int64)
        df = pd.DataFrame({"day": day,
                           "n": np.ones(len(day), np.int64),
                           "v": _cents(np.asarray(t.column("value")))})
        g = df.groupby("day", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    daily = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["day"], Sum("n", alias_name="n"), Sum("v", alias_name="v")
    ).to_pandas().sort_values("day").reset_index(drop=True)
    days = daily["day"].to_numpy(dtype=np.int64)
    cn = np.concatenate(([0], np.cumsum(daily["n"].to_numpy(np.int64))))
    cv = np.concatenate(([0], np.cumsum(daily["v"].to_numpy(np.int64))))
    lo = np.searchsorted(days, days - 6, side="left")
    hi = np.arange(1, len(days) + 1)
    return pa.table(
        {"day": pa.array(days, pa.int64()),
         "n": pa.array(daily["n"].astype("int64")),
         "value_cents": pa.array(daily["v"].astype("int64")),
         "n_7d": pa.array(cn[hi] - cn[lo], pa.int64()),
         "value_cents_7d": pa.array(cv[hi] - cv[lo], pa.int64())})


def q_props_novelty(sf_dir: str):
    """Payload-vocabulary NOVELTY per day — of the distinct tokens seen in
    event props on day d, how many had never appeared before d? The schema
    / content-drift detector a streaming ingest watches (a novelty spike
    means a producer changed payloads). Incremental first-occurrence
    reduce: per-batch distinct (day, token) partials → (token → Min day)
    at vocabulary cardinality → per-day new-token counts; per-day distinct
    totals ride the same (day, token) aggregate. Nothing row-scale leaves
    the aggregates."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", ["ts", "props"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column("ts").cast(pa.int64()).to_numpy()
               // 86_400_000_000).astype(np.int64)
        seen: set[tuple[int, str]] = set()
        for d, s in zip(day, t.column("props").to_pylist()):
            for tok in _ALNUM.findall((s or "").lower()):
                seen.add((int(d), tok))
        return pa.table(
            {"day": pa.array([d for d, _ in seen], pa.int64()),
             "token": pa.array([w for _, w in seen], pa.string())})

    pairs = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["day", "token"], Count(alias_name="_n"))

    totals = grouped_aggregate(
        pairs.map_batches(
            lambda t: pa.table({"day": t.column("day"),
                                "one": pa.array(
                                    np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["day"], Sum("one", alias_name="n_tokens")).to_pandas()
    first = grouped_aggregate(pairs, ["token"], Min("day", alias_name="d0"))
    news = grouped_aggregate(
        first.map_batches(
            lambda t: pa.table({"day": pc.cast(t.column("d0"), pa.int64()),
                                "one": pa.array(
                                    np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["day"], Sum("one", alias_name="n_new")).to_pandas()

    out = totals.merge(news, on="day", how="left").sort_values("day")
    return pa.table(
        {"day": pa.array(out["day"].astype("int64")),
         "n_tokens": pa.array(out["n_tokens"].astype("int64")),
         "n_new": pa.array(out["n_new"].fillna(0).astype("int64"))})


def q_abandoned_views(sf_dir: str):
    """TEMPORAL ANTI-JOIN: views with NO same-user purchase within 1 h
    after — the abandonment/churn signal, the NOT-EXISTS dual of the
    banded interval join. Matches come from the existing banded join
    (purchases ⋈ views with 0 ≤ p.ts − v.ts ≤ 3600, O(input) shuffle);
    the exclusion is then the exact side-tagged anti pattern (view rows
    tag 0 ∪ matched ids tag 1 → one keyed Max aggregate, keep tag 0) —
    no Bloom (FPs would drop survivors) and no broadcast of the matched
    set."""
    from ..stages.canonicalize import grouped_aggregate
    from ..stages.windows import interval_join

    ev = _rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    views = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "view"))
        .select(["event_id", "user_id", "ts"]),
        batch_format="pyarrow")
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "purchase"))
        .select(["event_id", "user_id", "ts"]),
        batch_format="pyarrow")

    matched = interval_join(purchases, views, on="user_id",
                            ts_col="ts", window_s=3600)

    def tag_matched(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("event_id", "user_id", "s",
                                           "tag")})
        return pd.DataFrame(
            {"event_id": df["event_id_r"].astype("int64"),
             "user_id": np.zeros(len(df), np.int64),
             "s": np.zeros(len(df), np.int64),
             "tag": np.ones(len(df), np.int64)})

    def tag_views(t: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": pc.cast(t.column("event_id"), pa.int64()),
             "user_id": pc.cast(t.column("user_id"), pa.int64()),
             "s": pa.array(t.column("ts").cast(pa.int64()).to_numpy()
                           // 1_000_000, pa.int64()),
             "tag": pa.array(np.zeros(t.num_rows, np.int64))})

    union = matched.map_batches(tag_matched, batch_format="pandas").union(
        views.map_batches(tag_views, batch_format="pyarrow"))
    agg = grouped_aggregate(
        union, ["event_id"],
        Max("tag", alias_name="tag"), Max("user_id", alias_name="user_id"),
        Max("s", alias_name="s"))
    def keep_unmatched(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t.column("tag"), 0))
        return pa.table({"event_id": pc.cast(f.column("event_id"), pa.int64()),
                         "user_id": pc.cast(f.column("user_id"), pa.int64()),
                         "s": pc.cast(f.column("s"), pa.int64())})

    return agg.map_batches(keep_unmatched, batch_format="pyarrow")


_PATH_TOP_K = 10
_PATH_GAP_US = 1_800_000_000  # 30-min session gap, µs-exact


def q_top_session_paths(sf_dir: str):
    """PATH ANALYSIS: the 10 most common session journeys — each session's
    event-type sequence joined with '>' (sessions split on 30-min gaps,
    µs-exact), counted across the corpus; ties → lexicographically first
    path. The funnel-discovery complement of event_type_transitions
    (whole-path counts, not Markov pairs). Coarse user buckets co-locate
    each user's events, one vectorized sort + gap-cumsum builds session
    ids, per-bucket path counts pre-aggregate before the path-keyed fold,
    and the final top-k runs on a per-batch partial-top-k reduction —
    paths never sort globally."""
    from ..stages.canonicalize import _compact_blocks, grouped_aggregate

    ds = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    P = _compact_blocks()

    def narrow(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return pa.table(
            {"user_id": pa.array(uid, pa.int64()),
             "event_id": pc.cast(t.column("event_id"), pa.int64()),
             "us": pa.array(t.column("ts").cast(pa.int64()).to_numpy(),
                            pa.int64()),
             "event_type": t.column("event_type"),
             "__part": pa.array(uid % P, pa.int64())})

    def bucket_paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "us", "event_id"])
        uid = g["user_id"].to_numpy()
        us = g["us"].to_numpy()
        prev = np.empty_like(us)
        prev[0] = np.iinfo(np.int64).min
        prev[1:] = us[:-1]
        new_user = np.empty(len(uid), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        sid = np.cumsum(new_user | (us - prev > _PATH_GAP_US))
        paths = (pd.DataFrame({"sid": sid,
                               "t": g["event_type"].to_numpy()})
                 .groupby("sid", sort=False)["t"]
                 .agg(">".join))
        out = (paths.to_frame("path").groupby("path", as_index=False)
               .size().rename(columns={"size": "n"}))
        out["n"] = out["n"].astype("int64")
        return out

    counts = grouped_aggregate(
        ds.map_batches(narrow, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(bucket_paths, batch_format="pandas"),
        ["path"], Sum("n", alias_name="n"))

    def partial_topk(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"path": t.column("path").to_pylist(),
                           "n": pc.cast(t.column("n"), pa.int64())
                           .to_numpy()})
        df = df.sort_values(["n", "path"],
                            ascending=[False, True]).head(_PATH_TOP_K)
        return pa.Table.from_pandas(df, preserve_index=False)

    cand = counts.map_batches(partial_topk, batch_format="pyarrow") \
        .take_all()
    top = sorted(cand, key=lambda r: (-int(r["n"]), r["path"]))[:_PATH_TOP_K]
    return pa.table({"path": pa.array([r["path"] for r in top], pa.string()),
                     "n": pa.array([int(r["n"]) for r in top], pa.int64())})


def q_events_anomalies(sf_dir: str):
    """Timeline ANOMALY DETECTION: days whose event count deviates from
    the corpus daily median by more than 3× the daily MAD — the
    robust-statistics alert rule (median/MAD immune to the anomalies
    themselves, unlike mean/stddev). The corpus reduces to the
    timeline-sized daily count aggregate; median, MAD and the 3-MAD gate
    all read from that one small table with exact integer arithmetic
    (|count − med| > 3·MAD compares integers — no float threshold).
    Emits the anomalous days with their deviation."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column("ts").cast(pa.int64()).to_numpy()
               // 86_400_000_000).astype(np.int64)
        u, c = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    daily = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["day"], Sum("n", alias_name="n")).to_pandas().sort_values("n")
    cnt = daily["n"].to_numpy(dtype=np.int64)
    m = len(cnt)
    med = int(cnt[(m - 1) // 2]) if m % 2 else int(cnt[m // 2 - 1])
    dev = np.sort(np.abs(cnt - med))
    mad = int(dev[(m - 1) // 2]) if m % 2 else int(dev[m // 2 - 1])
    out = daily[np.abs(daily["n"] - med) > 3 * mad].sort_values("day")
    return pa.table(
        {"day": pa.array(out["day"].astype("int64")),
         "n": pa.array(out["n"].astype("int64")),
         "deviation": pa.array((out["n"] - med).astype("int64"))})


def q_user_pareto(sf_dir: str):
    """PARETO / LORENZ concentration point: how few of the heaviest users
    produce ≥ 80 % of all events. User totals pre-aggregate per batch; the
    heaviest-first cumulative is the range-partitioned exclusive prefix sum
    over a PACKED descending key ((2³¹ − cnt) ≪ 32 | user — ascending key
    order IS count-descending, user-ascending total order, no global
    sort); a user is in the 80 % head iff its exclusive prefix is below
    the threshold, compared in integers (10·prefix < 8·total). Output:
    (n_users, n_events, n_users_80, users_share_ppm)."""
    from ..functions.rank import keyed_prefix_sum
    from ..stages.canonicalize import grouped_aggregate, pre_aggregated_count

    ds = _rp(sf_dir, "events", ["user_id"])
    ucnt = pre_aggregated_count(ds, ["user_id"], "cnt").materialize()
    tot_tbl = grouped_aggregate(
        ucnt.map_batches(
            lambda t: pa.table(
                {"__g": pa.array(np.zeros(t.num_rows, np.int64)),
                 "cnt": pc.cast(t.column("cnt"), pa.int64()),
                 "u": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["__g"], Sum("cnt", alias_name="tot"), Sum("u", alias_name="nu"),
    ).take_all()
    tot, nu = int(tot_tbl[0]["tot"]), int(tot_tbl[0]["nu"])

    def packed(t: pa.Table) -> pa.Table:
        cnt = pc.cast(t.column("cnt"), pa.int64()).to_numpy()
        # the NULL user is a group too (SQL GROUP BY); it packs last among
        # equal counts, and ties do not change n_users_80
        uid = pc.fill_null(pc.cast(t.column("user_id"), pa.int64()),
                           (1 << 32) - 1).to_numpy()
        return pa.table(
            {"dk": pa.array((((1 << 31) - cnt) << 32) | uid, pa.int64()),
             "cnt": pa.array(cnt, pa.int64())})

    cum = keyed_prefix_sum(ucnt.map_batches(packed, batch_format="pyarrow"),
                           "dk", "cnt", out="ps")

    def head_count(t: pa.Table) -> pa.Table:
        ps = pc.cast(t.column("ps"), pa.int64()).to_numpy()
        return pa.table(
            {"__g": pa.array([0], pa.int64()),
             "n80": pa.array([int((10 * ps < 8 * tot).sum())], pa.int64())})

    n80 = sum(int(r["n80"]) for r in grouped_aggregate(
        cum.map_batches(head_count, batch_format="pyarrow"),
        ["__g"], Sum("n80", alias_name="n80")).take_all())
    return pa.table(
        {"n_users": pa.array([nu], pa.int64()),
         "n_events": pa.array([tot], pa.int64()),
         "n_users_80": pa.array([n80], pa.int64()),
         "users_share_ppm": pa.array([1_000_000 * n80 // nu], pa.int64())})


def q_user_streaks(sf_dir: str):
    """Gaps-and-islands: per user, distinct active days and the LONGEST run
    of consecutive days — the retention/engagement-streak primitive. Plan:
    per-batch distinct (user, epoch-day) partials (16 B/row — the fact
    table's timestamps never shuffle twice), coarse user-hash buckets
    co-locate each user's days, and inside the bucket the classic
    day − row-position grouping runs vectorized (sort + cumcount, no
    Python loop over users); each bucket emits finished user rows, so the
    output needs no further exchange. Islands are detected on the DISTINCT
    day set — duplicate same-day events must not break or inflate runs."""
    from ..stages.canonicalize import _compact_blocks, grouped_aggregate

    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    P = _compact_blocks()

    def day_partials(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        day = (t.column("ts").cast(pa.int64()).to_numpy()
               // 86_400_000_000).astype(np.int64)
        if uid.size and (uid.max() >= 1 << 31 or uid.min() < 0
                         or day.max() >= 1 << 31 or day.min() < 0):
            raise ValueError("user_streaks: user_id/day must fit 31 bits")
        key = np.unique((uid << np.int64(32)) | day)
        u = key >> np.int64(32)
        return pa.table({"user_id": pa.array(u, pa.int64()),
                         "day": pa.array(key & ((1 << 32) - 1), pa.int64()),
                         "__part": pa.array(u % P, pa.int64())})

    def bucket_streaks(g: pd.DataFrame) -> pd.DataFrame:
        g = (g[["user_id", "day"]].drop_duplicates()
             .sort_values(["user_id", "day"]))
        pos = g.groupby("user_id", sort=False).cumcount()
        g = g.assign(grp=g["day"].to_numpy() - pos.to_numpy())
        runs = (g.groupby(["user_id", "grp"], as_index=False)
                .size().rename(columns={"size": "len"}))
        out = runs.groupby("user_id", as_index=False).agg(
            n_days=("len", "sum"), max_streak=("len", "max"))
        return out.astype({"user_id": "int64", "n_days": "int64",
                           "max_streak": "int64"})

    return (
        ds.map_batches(day_partials, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(bucket_streaks, batch_format="pandas")
    )


def q_profile_events(sf_dir: str):
    """Table PROFILER: per column, (n_rows, n_null, n_distinct) — the
    data-quality report every ingest job runs first. Exact distinct counts
    at any scale via the melt trick: each column's values canonicalize to
    an injective string key (ints/µs-timestamps verbatim, the 2-decimal
    float as cents — injective on this data; a general profiler would use
    a 128-bit value hash), batch-level dedup shrinks the exchange, ONE
    (col, key) distinct aggregate serves every column together, and the
    final count-per-column is column-cardinality. Null/row tallies ride a
    separate 2·|cols|-row partial-sum aggregate — nothing row-sized ever
    reaches the driver."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", None)

    def canon(t: pa.Table) -> dict[str, np.ndarray]:
        return {
            "event_id": pc.cast(t.column("event_id"), pa.int64())
            .to_numpy().astype("U"),
            "ts": t.column("ts").cast(pa.int64()).to_numpy().astype("U"),
            "user_id": pc.cast(t.column("user_id"), pa.int64())
            .to_numpy().astype("U"),
            "event_type": np.asarray(t.column("event_type").to_pylist(),
                                     dtype=object),
            "value": _cents(np.asarray(t.column("value"))).astype("U"),
            "props": np.asarray(t.column("props").to_pylist(), dtype=object),
        }

    def melt_keys(t: pa.Table) -> pa.Table:
        cols, keys = [], []
        for name, vals in canon(t).items():
            u = np.unique(vals[vals != np.array(None)])
            cols.append(np.full(len(u), name, dtype=object))
            keys.append(u.astype(object))
        return pa.table({"col": pa.array(np.concatenate(cols), pa.string()),
                         "key": pa.array(np.concatenate(keys), pa.string())})

    def tallies(t: pa.Table) -> pa.Table:
        names = ["event_id", "ts", "user_id", "event_type", "value", "props"]
        return pa.table(
            {"col": pa.array(names, pa.string()),
             "n_rows": pa.array([t.num_rows] * len(names), pa.int64()),
             "n_null": pa.array([t.column(n).null_count for n in names],
                                pa.int64())})

    distinct = grouped_aggregate(
        ds.map_batches(melt_keys, batch_format="pyarrow"),
        ["col", "key"], Count(alias_name="_n"))
    n_distinct = grouped_aggregate(
        distinct.map_batches(
            lambda t: pa.table({"col": t.column("col"),
                                "one": pa.array(
                                    np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["col"], Sum("one", alias_name="n_distinct")).to_pandas()
    tally = grouped_aggregate(
        ds.map_batches(tallies, batch_format="pyarrow"),
        ["col"], Sum("n_rows", alias_name="n_rows"),
        Sum("n_null", alias_name="n_null")).to_pandas()

    out = tally.merge(n_distinct, on="col").sort_values("col")
    return pa.table(
        {"col": pa.array(out["col"], pa.string()),
         "n_rows": pa.array(out["n_rows"].astype("int64")),
         "n_null": pa.array(out["n_null"].astype("int64")),
         "n_distinct": pa.array(out["n_distinct"].astype("int64"))})


def q_events_calendar(sf_dir: str):
    """Calendar-dimension histogram: event counts and value sums by
    (day-of-week, hour-of-day) — the seasonality heatmap. Day-of-week is
    computed engine-neutrally as (epoch_day + 4) % 7 (0 = Sunday; no
    reliance on either engine's locale-dependent DOW function), hour as
    (epoch_s // 3600) % 24 — both from the same integer µs timestamps.
    Per-batch partials → one ≤ 168-row aggregate at any scale."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", ["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64()).to_numpy()
        dow = ((us // 86_400_000_000 + 4) % 7).astype(np.int64)
        hour = ((us // 3_600_000_000) % 24).astype(np.int64)
        df = pd.DataFrame({"dow": dow, "hour": hour,
                           "n": np.ones(len(us), np.int64),
                           "value_cents": _cents(np.asarray(t.column("value")))})
        g = df.groupby(["dow", "hour"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["dow", "hour"],
        Sum("n", alias_name="n"), Sum("value_cents", alias_name="value_cents"))


_ACTIVE_WINDOW_S = 300


def q_user_active_seconds(sf_dir: str):
    """INTERVAL UNION per user: each event opens a 300 s activity window
    [ts, ts+300); the metric is the total length of the union of those
    intervals and the number of disjoint islands — billing/engagement time
    that double-counts nothing however bursty the events. Plan: narrow
    (user, epoch-s) rows, coarse user-hash buckets, and a vectorized sweep
    inside the bucket: sort by start, island starts where start > running
    max of previous ends (cummax shifted by one), then per-island
    max(end) − min(start) sums per user. Finished user rows leave the
    bucket — one narrow shuffle total."""
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    P = _compact_blocks()
    W = _ACTIVE_WINDOW_S

    def narrow(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        s = (t.column("ts").cast(pa.int64()).to_numpy()
             // 1_000_000).astype(np.int64)
        return pa.table({"user_id": pa.array(uid, pa.int64()),
                         "s": pa.array(s, pa.int64()),
                         "__part": pa.array(uid % P, pa.int64())})

    def bucket_union(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "s"])
        uid = g["user_id"].to_numpy()
        start = g["s"].to_numpy()
        end = start + W
        # fixed window ⇒ end is monotone within each (sorted) user, so the
        # running max of previous ends is simply the previous row's end —
        # and it must NOT accumulate across user boundaries
        prev_end = np.empty_like(end)
        prev_end[0] = np.iinfo(np.int64).min
        prev_end[1:] = end[:-1]
        new_user = np.empty(len(uid), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        island = np.cumsum(new_user | (start > prev_end))
        df = pd.DataFrame({"user_id": uid, "island": island,
                           "start": start, "end": end})
        isl = df.groupby(["user_id", "island"], as_index=False).agg(
            lo=("start", "min"), hi=("end", "max"))
        isl["len"] = isl["hi"] - isl["lo"]
        out = isl.groupby("user_id", as_index=False).agg(
            active_s=("len", "sum"), n_islands=("len", "size"))
        return out.astype({"user_id": "int64", "active_s": "int64",
                           "n_islands": "int64"})

    return (
        ds.map_batches(narrow, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(bucket_union, batch_format="pandas")
    )


_DEBOUNCE_S = 60


def q_events_debounced(sf_dir: str):
    """DEBOUNCE / throttle dedup: an event is kept iff the previous event
    of the same (user, type) is more than 60 s older — the stream-hygiene
    filter that collapses double-clicks and retry storms before counting
    anything. Per-batch narrow projection, coarse user-hash buckets, one
    vectorized (user, type, ts, id)-ordered lag inside the bucket; emits
    kept event ids + per-type kept counts are left to consumers. Ties
    (identical ts) order by event_id, so exactly one of an identical
    burst survives per window."""
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    P = _compact_blocks()

    def narrow(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return pa.table(
            {"event_id": pc.cast(t.column("event_id"), pa.int64()),
             "user_id": pa.array(uid, pa.int64()),
             "event_type": t.column("event_type"),
             "s": pa.array(t.column("ts").cast(pa.int64()).to_numpy()
                           // 1_000_000, pa.int64()),
             "__part": pa.array(uid % P, pa.int64())})

    def debounce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "s", "event_id"])
        prev = (g.groupby(["user_id", "event_type"], sort=False)["s"]
                .shift())
        keep = prev.isna() | (g["s"] - prev > _DEBOUNCE_S)
        out = g.loc[keep, ["event_id", "user_id", "event_type", "s"]]
        return out.astype({"event_id": "int64", "user_id": "int64",
                           "s": "int64"})

    return (
        ds.map_batches(narrow, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(debounce, batch_format="pandas")
    )


def q_user_time_weighted_value(sf_dir: str):
    """TIME-WEIGHTED average value per user — each event's value holds
    until the next event, so the mean is Σ(value·Δt) / ΣΔt (the financial
    TWAP / metrics-gauge integral), not the naive row mean that a bursty
    sampler biases. Exact integers end to end: per-user ordered lead
    inside coarse buckets → Σ cents·Δs and ΣΔs partial per user (the last
    event has no successor and is excluded on both sides), final
    twav_cents = Σ(v·Δt) // ΣΔt. One narrow shuffle; finished user rows
    leave the bucket."""
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    P = _compact_blocks()

    def narrow(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return pa.table(
            {"user_id": pa.array(uid, pa.int64()),
             "event_id": pc.cast(t.column("event_id"), pa.int64()),
             "s": pa.array(t.column("ts").cast(pa.int64()).to_numpy()
                           // 1_000_000, pa.int64()),
             "v": pa.array(_cents(np.asarray(t.column("value"))), pa.int64()),
             "__part": pa.array(uid % P, pa.int64())})

    def twa(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "s", "event_id"])
        nxt = g.groupby("user_id", sort=False)["s"].shift(-1)
        dt = (nxt - g["s"]).fillna(0).astype("int64")
        w = g["v"].to_numpy() * dt.to_numpy()
        df = pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                           "wsum": w, "tsum": dt.to_numpy()})
        out = df.groupby("user_id", as_index=False).sum()
        out = out[out["tsum"] > 0]
        out["twav_cents"] = out["wsum"] // out["tsum"]
        return out[["user_id", "wsum", "tsum", "twav_cents"]].astype("int64")

    return (
        ds.map_batches(narrow, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(twa, batch_format="pandas")
    )


def q_events_cusum(sf_dir: str):
    """CUSUM change-point detection on the daily event count — the
    sequential drift detector (S_t = max(0, S_{t-1} + x_t − μ̂), μ̂ = the
    trunc-mean daily count, all integer-exact). Counting is fully
    distributed (per-batch day partials → day-sized aggregate); the
    recurrence itself is inherently sequential, so it walks the DAY table
    on the driver — timeline-sized (≤ tens of thousands of rows for
    decades of data), bounded by the calendar and not by corpus size, the
    same contract as value_median's histogram walk. Output: every day with
    its count and CUSUM statistic."""
    from ..stages.canonicalize import grouped_aggregate

    daily = grouped_aggregate(
        _rp(sf_dir, "events", ["ts"]).map_batches(
            lambda t: (lambda d: pa.Table.from_pandas(
                pd.DataFrame({"day": d}).groupby("day", as_index=False)
                .size().rename(columns={"size": "n"}), preserve_index=False))(
                pc.cast(t.column("ts"), pa.int64()).to_numpy()
                // 86_400_000_000),
            batch_format="pyarrow"),
        ["day"], Sum("n", alias_name="n")).take_all()
    schema = pa.schema([("day", pa.int64()), ("n", pa.int64()),
                        ("cusum", pa.int64())])
    if not daily:
        return schema.empty_table()
    rows = sorted((int(r["day"]), int(r["n"])) for r in daily)
    mu = sum(n for _, n in rows) // len(rows)
    out_day, out_n, out_s = [], [], []
    s = 0
    for day, n in rows:
        s = max(0, s + n - mu)
        out_day.append(day), out_n.append(n), out_s.append(s)
    return pa.table({"day": pa.array(out_day, pa.int64()),
                     "n": pa.array(out_n, pa.int64()),
                     "cusum": pa.array(out_s, pa.int64())})


def q_record_highs(sf_dir: str):
    """ALL-TIME-HIGH detector — events whose value strictly exceeds every
    earlier value in (ts, event_id) stream order; the monitoring / trading
    'new record' trigger and the simplest true streaming scan (each row
    depends on the unbounded prefix). Runs on functions/rank.py's
    keyed_prefix_max: sampled ts-bucket edges, ONE tree-reduced per-bucket
    max pass, driver-side exclusive scan over the tiny B-vector, ONE
    shuffle by bucket with a local sorted cummax inside — no global sort,
    and ~log n expected survivors regardless of scale. Output:
    (event_id, value_cents)."""
    from ..functions.rank import keyed_prefix_max

    ds = _rp(sf_dir, "events", ["event_id", "ts", "value"])

    def narrow(t: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": pc.cast(t.column("event_id"), pa.int64()),
             "us": pc.cast(t.column("ts"), pa.int64()),
             "value_cents": pa.array(_cents(np.asarray(t.column("value"))),
                                     pa.int64())})

    pm = keyed_prefix_max(
        ds.map_batches(narrow, batch_format="pyarrow"),
        "us", "event_id", "value_cents", out="prev_max")

    def keep(t: pa.Table) -> pa.Table:
        m = pc.greater(t.column("value_cents"), t.column("prev_max"))
        f = t.filter(m)
        return pa.table({"event_id": f.column("event_id"),
                         "value_cents": f.column("value_cents")})

    return pm.map_batches(keep, batch_format="pyarrow")


def q_peak_concurrency(sf_dir: str):
    """PEAK CONCURRENCY — the classic sweep-line: maximum number of user
    sessions active at any instant (capacity planning / load-test sizing).
    Sessions are the 1h-gap intervals of ``user_sessions`` (exact per-user
    inside coarse hash buckets); each interval becomes (+1 at start, −1 at
    end+1µs — half-open, so µs-adjacent sessions never overlap), deltas
    PRE-AGGREGATE per distinct timestamp (making the scan key unique — and
    evaluating concurrency only at timestamps, where it is well-defined),
    then ONE range-partitioned ``keyed_prefix_sum`` turns the timeline into
    running concurrency with no global sort; the finish is a two-scalar
    fold over the (≤ 2·sessions)-row timeline. Output: one row
    (n_sessions, peak_concurrency)."""
    from ..functions.rank import keyed_prefix_sum
    from ..stages.canonicalize import _compact_blocks, grouped_aggregate

    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(uid % P, pa.int64()))

    def part_intervals(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        gap = g.groupby("user_id", sort=False)["ts"].diff().dt.total_seconds() > 3600
        sid = gap.groupby(g["user_id"], sort=False).cumsum()
        us = g["ts"].astype("int64")
        iv = (
            pd.DataFrame({"user_id": g["user_id"], "sid": sid, "us": us})
            .groupby(["user_id", "sid"], as_index=False, sort=False)
            .agg(s=("us", "min"), e=("us", "max"))
        )
        t = np.concatenate([iv["s"].to_numpy(), iv["e"].to_numpy() + 1])
        delta = np.concatenate([np.ones(len(iv), np.int64),
                                np.full(len(iv), -1, np.int64)])
        out = pd.DataFrame({"t": t, "delta": delta,
                            "n_start": (delta > 0).astype("int64")})
        return out.groupby("t", as_index=False).agg(
            delta=("delta", "sum"), n_start=("n_start", "sum"))

    deltas = grouped_aggregate(
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_intervals, batch_format="pandas"),
        ["t"],
        Sum("delta", alias_name="delta"),
        Sum("n_start", alias_name="n_start"),
    ).materialize()  # timeline-sized (≤ 2·sessions rows); the prefix-sum
    # primitive consumes it three times (edge sample, histogram, shuffle)
    run = keyed_prefix_sum(deltas, "t", "delta", out="prefix")

    def conc(t: pa.Table) -> pa.Table:
        p = pc.cast(t.column("prefix"), pa.int64()).to_numpy()
        d = pc.cast(t.column("delta"), pa.int64()).to_numpy()
        return pa.table({
            "conc": pa.array(p + d, pa.int64()),
            "n_start": pc.cast(t.column("n_start"), pa.int64()),
        })

    res = run.map_batches(conc, batch_format="pyarrow").aggregate(
        Max("conc"), Sum("n_start"))
    return pa.table({
        "n_sessions": pa.array([int(res["sum(n_start)"])], pa.int64()),
        "peak_concurrency": pa.array([int(res["max(conc)"])], pa.int64()),
    })


def q_daily_ohlc(sf_dir: str):
    """Daily OHLC bars per event type — the canonical time-series
    downsample (open = value at the earliest (ts, event_id), close = at the
    latest, high/low = extremes, all in exact cents). The per-batch combiner
    is LOSSLESS: each batch reduces a (type, day) group to ONE candidate row
    carrying (open_ts, open_id, open_cents, close_ts, close_id, close_cents,
    hi, lo, n), so the exchange is O(groups × blocks) narrow rows and the
    per-group finish folds ≤ blocks candidates inside a coarse-bucketed
    map_groups — the value stream never shuffles. Ties at equal ts break by
    event_id on both ends, so the bars are deterministic at any parallelism.
    Output: (event_type, day, open_cents, high_cents, low_cents,
    close_cents, n_events)."""
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "events", ["event_type", "ts", "event_id", "value"])
    P = _compact_blocks()
    _DAY_US = 86_400_000_000

    def partial(t: pa.Table) -> pd.DataFrame:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        df = pd.DataFrame({
            "event_type": t.column("event_type").to_pylist(),
            "day": us // _DAY_US,
            "ts": us,
            "event_id": pc.cast(t.column("event_id"), pa.int64()).to_numpy(),
            "cents": np.floor(
                pc.cast(t.column("value"), pa.float64()).to_numpy() * 100 + 0.5
            ).astype(np.int64),
        })
        df = df.sort_values(["event_type", "day", "ts", "event_id"],
                            kind="mergesort")
        g = df.groupby(["event_type", "day"], as_index=False, sort=False).agg(
            open_ts=("ts", "first"), open_id=("event_id", "first"),
            open_cents=("cents", "first"),
            close_ts=("ts", "last"), close_id=("event_id", "last"),
            close_cents=("cents", "last"),
            hi=("cents", "max"), lo=("cents", "min"), n=("cents", "size"),
        )
        g["__part"] = pd.util.hash_pandas_object(
            g["event_type"].astype(str) + ":" + g["day"].astype(str),
            index=False).to_numpy().astype(np.int64) % P
        return g

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["event_type", "day"], kind="mergesort")
        out = []
        for (et, day), grp in g.groupby(["event_type", "day"], sort=False):
            o = grp.sort_values(["open_ts", "open_id"], kind="mergesort").iloc[0]
            c = grp.sort_values(["close_ts", "close_id"], kind="mergesort").iloc[-1]
            out.append((et, int(day), int(o["open_cents"]),
                        int(grp["hi"].max()), int(grp["lo"].min()),
                        int(c["close_cents"]), int(grp["n"].sum())))
        return pd.DataFrame(out, columns=[
            "event_type", "day", "open_cents", "high_cents", "low_cents",
            "close_cents", "n_events"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(finish, batch_format="pandas")
    )


def q_late_events(sf_dir: str):
    """WATERMARK late-data accounting — the streaming-ingestion health
    metric: an event is LATE when its event time sits more than 1h behind
    the watermark, i.e. the maximum event time among all rows that ARRIVED
    before it (arrival order = event_id, the ingestion sequence). The
    watermark is a true streaming scan (each row depends on the unbounded
    arrival prefix) and runs on ``keyed_prefix_max`` — sampled bucket edges,
    one tree-reduced per-bucket max, one bucket shuffle with a local sorted
    cummax; no global sort. Lateness is then a row-local flag folded into a
    type-sized count aggregate. Output: (event_type, n_events, n_late)."""
    from ..functions.rank import keyed_prefix_max
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "events", ["event_id", "ts", "event_type"])
    _LATE_US = 3_600_000_000
    _I64_MIN = np.iinfo(np.int64).min

    def narrow(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": pc.cast(t.column("event_id"), pa.int64()),
            "us": pc.cast(t.column("ts"), pa.int64()),
            "event_type": t.column("event_type"),
        })

    wm = keyed_prefix_max(
        ds.map_batches(narrow, batch_format="pyarrow"),
        "event_id", "us", "us", out="wm")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df["wm"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        late = (w != _I64_MIN) & (us < w - _LATE_US)
        g = pd.DataFrame({"event_type": df["event_type"],
                          "n_events": 1,
                          "n_late": late.astype(np.int64)})
        return g.groupby("event_type", as_index=False).agg(
            n_events=("n_events", "sum"), n_late=("n_late", "sum"))

    return grouped_aggregate(
        wm.map_batches(partial, batch_format="pandas"),
        ["event_type"],
        Sum("n_events", alias_name="n_events"),
        Sum("n_late", alias_name="n_late"),
    )


def q_daily_locf(sf_dir: str):
    """Daily LOCF gap-fill (last observation carried forward) — the
    time-series resample that turns sparse per-day closes into a DENSE
    calendar grid per type, missing days inheriting the previous day's
    value (sensor/price panels, feature-store snapshots). Per-batch
    combiner reduces each (type, day) to one close candidate (argmax by
    (ts, event_id), the daily_ohlc close rule); candidates coarse-bucket by
    TYPE so each type's whole timeline lands in one group (timeline-sized,
    the value_median driver contract), where the dense ``arange(min_day,
    max_day)`` grid + vectorized searchsorted fill happen row-locally —
    the event stream itself never reshuffles. Output: (event_type, day,
    value_cents, filled). The sf tables have no empty days, so the fill
    path is pinned by a gap fixture."""
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "events", ["event_type", "ts", "event_id", "value"])
    P = _compact_blocks()
    _DAY_US = 86_400_000_000

    def partial(t: pa.Table) -> pd.DataFrame:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        df = pd.DataFrame({
            "event_type": t.column("event_type").to_pylist(),
            "day": us // _DAY_US,
            "ts": us,
            "event_id": pc.cast(t.column("event_id"), pa.int64()).to_numpy(),
            "cents": np.floor(
                pc.cast(t.column("value"), pa.float64()).to_numpy() * 100 + 0.5
            ).astype(np.int64),
        }).sort_values(["event_type", "day", "ts", "event_id"],
                       kind="mergesort")
        g = df.groupby(["event_type", "day"], as_index=False, sort=False).agg(
            ts=("ts", "last"), event_id=("event_id", "last"),
            cents=("cents", "last"))
        g["__part"] = pd.util.hash_pandas_object(
            g["event_type"].astype(str), index=False
        ).to_numpy().astype(np.int64) % P
        return g

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for et, grp in g.groupby("event_type", sort=False):
            daily = (grp.sort_values(["day", "ts", "event_id"],
                                     kind="mergesort")
                     .groupby("day", as_index=False, sort=True)
                     .agg(cents=("cents", "last")))
            days = daily["day"].to_numpy(np.int64)
            cents = daily["cents"].to_numpy(np.int64)
            full = np.arange(days[0], days[-1] + 1, dtype=np.int64)
            idx = np.searchsorted(days, full, side="right") - 1
            have = np.isin(full, days)
            out.append(pd.DataFrame({
                "event_type": et, "day": full, "value_cents": cents[idx],
                "filled": (~have).astype(np.int64)}))
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame({
            "event_type": pd.Series([], dtype="object"),
            "day": pd.Series([], dtype="int64"),
            "value_cents": pd.Series([], dtype="int64"),
            "filled": pd.Series([], dtype="int64")})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(finish, batch_format="pandas")
    )


def q_event_type_comovement(sf_dir: str):
    """Pairwise CO-MOVEMENT of the per-type daily count series — the exact
    integer covariance numerator n·Σxy − Σx·Σy over the shared day axis
    (do event types rise and fall together? the cross-series dependence
    probe behind correlation heatmaps). Key insight: zero days contribute
    nothing to Σx or Σxy, so the SPARSE (day, type, n) aggregate suffices —
    no dense pivot; n_days is one scalar. Plan: bounded daily aggregate →
    per-type sums (type-sized) + per-day pair products pre-aggregated
    inside day-complete coarse buckets (exchange ≤ pairs × buckets) → a
    pair-keyed Sum; pairs that never co-occur are zero-filled from the
    type-sized table so cov_num = −Σx·Σy is still emitted. Output:
    (type_a, type_b, n_days, cov_num)."""
    from ..stages.canonicalize import _compact_blocks, grouped_aggregate

    ds = _rp(sf_dir, "events", ["ts", "event_type"])
    P = _compact_blocks()
    _DAY_US = 86_400_000_000

    def day_type(t: pa.Table) -> pd.DataFrame:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        df = pd.DataFrame({"day": us // _DAY_US,
                           "event_type": t.column("event_type").to_pylist()})
        return df.groupby(["day", "event_type"], as_index=False).size().rename(
            columns={"size": "n"})

    daily = grouped_aggregate(
        ds.map_batches(day_type, batch_format="pyarrow"),
        ["day", "event_type"], Sum("n", alias_name="n"),
    ).materialize()  # bounded: days × type vocabulary

    # type-sized Σx and the scalar day count (both driver-safe)
    sx: dict[str, int] = {}
    days: set[int] = set()
    for b in daily.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for d, et, n in zip(b.column("day").to_pylist(),
                            b.column("event_type").to_pylist(),
                            b.column("n").to_pylist()):
            sx[et] = sx.get(et, 0) + int(n)
            days.add(int(d))
    n_days = len(days)

    def add_bucket(t: pa.Table) -> pa.Table:
        d = pc.cast(t.column("day"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(d % P, pa.int64()))

    def pair_partials(g: pd.DataFrame) -> pd.DataFrame:
        out: dict[tuple, int] = {}
        for _, grp in g.groupby("day", sort=False):
            ets = grp["event_type"].to_numpy()
            ns = grp["n"].to_numpy(np.int64)
            order = np.argsort(ets, kind="mergesort")
            ets, ns = ets[order], ns[order]
            for i in range(len(ets)):
                for j in range(i + 1, len(ets)):
                    k = (ets[i], ets[j])
                    out[k] = out.get(k, 0) + int(ns[i]) * int(ns[j])
        if not out:
            return pd.DataFrame({"type_a": pd.Series([], dtype="object"),
                                 "type_b": pd.Series([], dtype="object"),
                                 "sxy": pd.Series([], dtype="int64")})
        ks = list(out)
        return pd.DataFrame({"type_a": [a for a, _ in ks],
                             "type_b": [b for _, b in ks],
                             "sxy": [out[k] for k in ks]})

    sxy_ds = grouped_aggregate(
        daily.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(pair_partials, batch_format="pandas"),
        ["type_a", "type_b"], Sum("sxy", alias_name="sxy"),
    )
    sxy: dict[tuple, int] = {}
    for b in sxy_ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
        for a, c, s in zip(b.column("type_a").to_pylist(),
                           b.column("type_b").to_pylist(),
                           b.column("sxy").to_pylist()):
            sxy[(a, c)] = int(s)

    types = sorted(sx)
    rows = []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            a, c = types[i], types[j]
            s = sxy.get((a, c), 0)
            rows.append((a, c, n_days, n_days * s - sx[a] * sx[c]))
    return pa.table({
        "type_a": pa.array([r[0] for r in rows]),
        "type_b": pa.array([r[1] for r in rows]),
        "n_days": pa.array([r[2] for r in rows], pa.int64()),
        "cov_num": pa.array([r[3] for r in rows], pa.int64()),
    })


def q_merge_upsert(sf_dir: str):
    """CDC MERGE INTO / upsert-apply — the lakehouse change-data-capture
    primitive: a base table + a changelog of keyed UPDATE/DELETE rows →
    the post-merge table, winner per key = highest version, DELETE
    tombstones dropped. The changelog is synthesized deterministically from
    the base (keys ≡ 0 mod 11 → DELETE; else ≡ 0 mod 7 → UPDATE adding
    100 cents), so both engines derive identical change streams with no
    external data. Plan: side-tagged union (version travels with the row),
    per-batch LOSSLESS combiner packs (version ≪ 33 ∣ is_del ≪ 32 ∣ cents)
    — cents < 2³² at any TPC-H scale — so each key ships ≤ 1 row per batch
    per side into ONE keyed Max aggregate; decode + tombstone filter are
    row-local. No join, no sort; the merge is a single bucketed exchange at
    key cardinality (the snapshot_delta sibling — apply instead of diff).
    Output: (o_orderkey, cents, version)."""
    from ..stages.canonicalize import grouped_aggregate

    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def tagged(t: pa.Table) -> pa.Table:
        k = pc.cast(t.column("o_orderkey"), pa.int64()).to_numpy()
        cents = np.floor(
            pc.cast(t.column("o_totalprice"), pa.float64()).to_numpy()
            * 100 + 0.5).astype(np.int64)
        # base rows: version 0, live
        packed_base = cents
        keys, packed = [k], [packed_base]
        is_del = k % 11 == 0
        is_upd = ~is_del & (k % 7 == 0)
        # changelog rows: version 1
        if is_del.any():
            keys.append(k[is_del])
            packed.append(np.full(int(is_del.sum()),
                                  (1 << 33) | (1 << 32), np.int64))
        if is_upd.any():
            keys.append(k[is_upd])
            packed.append((1 << 33) + cents[is_upd] + 100)
        df = pd.DataFrame({"o_orderkey": np.concatenate(keys),
                           "packed": np.concatenate(packed)})
        g = df.groupby("o_orderkey", as_index=False).agg(packed=("packed", "max"))
        return pa.Table.from_pandas(g, preserve_index=False)

    merged = grouped_aggregate(
        ds.map_batches(tagged, batch_format="pyarrow"),
        ["o_orderkey"], Max("packed", alias_name="packed"),
    )

    def finish(t: pa.Table) -> pa.Table:
        p = pc.cast(t.column("packed"), pa.int64()).to_numpy()
        k = pc.cast(t.column("o_orderkey"), pa.int64()).to_numpy()
        live = (p >> 32) & 1
        keep = live == 0
        return pa.table({
            "o_orderkey": pa.array(k[keep], pa.int64()),
            "cents": pa.array(p[keep] & ((1 << 32) - 1), pa.int64()),
            "version": pa.array(p[keep] >> 33, pa.int64()),
        })

    return merged.map_batches(finish, batch_format="pyarrow")


def q_session_duration_quantiles(sf_dir: str):
    """Session-duration p50/p90/p99 — the SESSIONIZE × SKETCH composition:
    gap-based sessions (1h, the q_user_sessions convention) reduced to
    whole-second durations, folded through the mergeable HDR quantile
    sketch (functions/sketches.py — bucket counts are Sum-mergeable and
    bit-identical to the SQL replication, so the composed pipeline stays
    hash-checked end to end). Durations are (max_us − min_us) // 10⁶
    integers; per-user sessionization runs inside coarse user-hash buckets
    exactly like q_user_sessions."""
    from ..functions.sketches import hdr_quantiles
    from ..stages.canonicalize import _compact_blocks

    ds = _rp(sf_dir, "events", ["user_id", "ts"])
    P = _compact_blocks()

    def add_part(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.int64()).to_numpy()
        return t.append_column("__part", pa.array(uid % P, pa.int64()))

    def part_durations(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        # explicit µs unit: pandas preserves arrow timestamp[us] as
        # datetime64[us] today, but an astype("int64") would silently
        # become ns if the unit ever changed — pin it
        us = pd.Series(g["ts"].values.astype("datetime64[us]").astype("int64"),
                       index=g.index)
        gap = g.groupby("user_id", sort=False)["ts"].diff().dt.total_seconds()
        new_sess = (gap > 3600) | gap.isna()
        sid = new_sess.cumsum()
        d = (pd.DataFrame({"user_id": g["user_id"], "sid": sid, "us": us})
             .groupby(["user_id", "sid"], sort=False)["us"]
             .agg(["min", "max"]))
        dur = ((d["max"] - d["min"]) // 1_000_000).astype("int64")
        return pd.DataFrame({"duration_s": dur.to_numpy()})

    durations = (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_durations, batch_format="pandas")
    )
    out = hdr_quantiles(durations, "duration_s")
    return out.rename_columns(["q_pct", "est_s", "n_rows"])
