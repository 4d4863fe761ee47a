"""Driver-mimic: run the queries() entries with catalogue index in
[start, end) at a given sf dir via Ray AND DuckDB, compare rows /
sorted-column schema / order-insensitive values. Exits 1 if any entry fails.

Usage: python tools/check_window_sf001.py [sf_dir] [start] [end]
(defaults: ``SF_DIR`` below, 0, 50). One entry: start=i, end=i+1, e.g.
``python tools/check_window_sf001.py <sf0.01 dir> 45 46`` (graph_components).
"""
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

SF_DIR = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
START = int(sys.argv[2]) if len(sys.argv) > 2 else 0
END = int(sys.argv[3]) if len(sys.argv) > 3 else 50
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> list:
    cols = sorted(df.columns)
    rows = []
    for t in df[cols].itertuples(index=False):
        row = []
        for v in t:
            if isinstance(v, float):
                row.append(round(v, 9) if not math.isnan(v) else "nan")
            else:
                row.append(v)
        rows.append(tuple(row))
    return sorted(map(repr, rows))


def main():
    import time

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from ner_extractor_ray.pipelines.queries import oracle_sql, queries

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF_DIR}/{t}.parquet')")

    qs = queries()
    osql = oracle_sql(SF_DIR)
    names = list(qs)[START:END]
    bad = []
    for name in names:
        t0 = time.time()
        try:
            ray_df = _to_pandas(qs[name](SF_DIR))
            if name not in osql:
                print(f"  {name}: rows-only {len(ray_df)} "
                      f"({time.time()-t0:.1f}s)", flush=True)
                continue
            sql_df = con.execute(osql[name]).fetchdf()
            ok_schema = sorted(ray_df.columns) == sorted(sql_df.columns)
            ok_rows = len(ray_df) == len(sql_df)
            ok_hash = ok_schema and _normalize(ray_df) == _normalize(sql_df)
            status = "OK" if (ok_schema and ok_rows and ok_hash) else "FAIL"
            print(f"  {name}: {status} rows={len(ray_df)}/{len(sql_df)} "
                  f"schema={ok_schema} hash={ok_hash} "
                  f"({time.time()-t0:.1f}s)", flush=True)
            if status == "FAIL":
                bad.append(name)
        except Exception as e:  # noqa: BLE001 — report and continue
            print(f"  {name}: ERROR {type(e).__name__}: {e}", flush=True)
            bad.append(name)
    print("FAILED:" if bad else "ALL GREEN", bad, flush=True)
    ray.shutdown()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
