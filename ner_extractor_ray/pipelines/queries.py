"""Query catalogue: one entry per implemented operator family (SURVEY.md §2),
each with a DuckDB-equivalent oracle SQL where ANSI-SQL can express it.

Conventions that make the driver's order-insensitive value-hash comparison
succeed (CORRECTNESS gate):
  * every computed/aggregate column is NAMED, identically in Ray and SQL;
  * money/float sums are computed on exact integers
    (``cents = floor(x*100 + 0.5)`` — identical IEEE double ops on both
    sides, then exact int64 addition in any order); raw double sums are
    order-dependent in the last ulp and would hash-mismatch;
  * count columns are int64 on both sides; int32 keys are cast to int64;
  * top-k queries carry a total-order tie-break (value desc, key asc).

Scale discipline: column pruning at read_parquet; per-batch partial
aggregation before every groupby; broadcast small sides (nation) instead of
shuffle joins; top-k as per-batch partial top-k → tiny global sort.
"""

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
    EMBED_DIM, _ALNUM, _cents, _floor_log2, _gagg, _min_count_filter,
    _nonempty_or_empty_table, _rp, _ts_us,
)
from .q_relational import (
    _BIG_ORDER_MIN_QTY, _BRACKETS, _COOC_MIN_ORDERS, _CUME_PRIOS,
    _EXCESS_QTY_MIN, _MELT_MEASURES, _NTILE_K, _SCD_DAY0, _WAIT_GRACE_US,
    _Z_BITS, _set_op, _skyline_mask, q_big_orders, q_bloom_semi_orders,
    q_brand_bracket_revenue, q_brand_market_share, q_bucketed_join_revenue,
    q_cheapest_supplier, q_churned_high_value, q_customer_by_nation,
    q_customer_only_nations, q_customer_order_counts,
    q_customers_all_priorities, q_customers_with_orders,
    q_customers_without_urgent_orders, q_discount_revenue,
    q_excess_suppliers, q_integrity_audit, q_late_order_priority,
    q_lineitem_unpivot, q_nation_pair_volume, q_nation_presence_outer,
    q_nation_priority_grid, q_nation_profit, q_nation_share_of_region,
    q_nations_except_all, q_nations_intersect_all, q_nations_overlap,
    q_nations_without_suppliers, q_order_count_distribution,
    q_order_cume_dist, q_order_deciles, q_order_rank, q_order_skyline,
    q_orders_above_avg, q_orders_benford, q_orders_by_month, q_orders_cube,
    q_orders_priority_share, q_orders_rollup, q_orders_zonemap,
    q_orders_zorder, q_part_cooccurrence, q_part_lift, q_part_revenue_share,
    q_part_triples, q_part_type_prefix, q_pricing_summary,
    q_priority_month_chi2, q_promo_revenue, q_returnflag_priority,
    q_revenue_by_brand, q_revenue_by_region, q_revenue_mom, q_rfm_segments,
    q_scd_segment_orders, q_segment_spend_skewed, q_ship_days,
    q_shipping_priority, q_small_qty_revenue, q_supplier_diversity,
    q_top_orders, q_top_return_customers, q_top_supplier, q_union_nationkeys,
    q_waiting_suppliers,    q_brand_supplier_cnt, q_disjunctive_revenue,
    q_idle_customers_by_segment,
)
from .q_dedup import (
    _DECON_BENCH_IDS, _DECON_N, _DUPNG_N, _MB_MAX_BLOCK, _SNM_WINDOW,
    _project_pairs, _snm_sql, q_curation_pipeline, q_decontamination,
    q_dedup_ngram_spans, q_domain_dup_rate, q_dup_ngram_fraction,
    q_embedding_neardup, q_exact_dedup, q_fuzzy_part_names, q_golden_records,
    q_image_phash_neardup, q_meta_blocking, q_minhash_neardup,
    q_neardup_keep, q_neardup_keep_best, q_ngram_jaccard_neardup,
    q_normalized_dedup, q_paragraph_dedup, q_setsim_neardup, q_simhash,
    q_sorted_neighborhood,    q_neardup_cluster_hist,
)
from .q_text import (
    _BM25_K, _BM25_TERMS, _CHUNK_K, _DSIR_BUCKETS, _FH_DIMS, _INV_DF_CAP,
    _LM_MIN_N, _PMI_MIN_N, _PMI_TOP, _QC_BUCKETS, _SENT_ENDS, _TFIDF_MIN_DF,
    _TFIDF_TOP, _TOP_TERMS_K, _VOWEL_RUNS, _pii_contact_text, q_bigram_freq,
    q_bm25_search, q_bpe_merges, q_bpe_pair_counts, q_compression_ratio,
    q_distinct_langs, q_doc_chunks, q_dsir_importance, q_feature_hashing,
    q_fingerprint, q_inverted_index, q_lang_stats, q_langid,
    q_length_buckets, q_lm_score, q_oov_rate, q_phrase_search, q_pii_redact,
    q_pii_stats, q_pmi_bigrams, q_quality, q_quality_classifier,
    q_readability, q_repetition_stats, q_source_vocab_jaccard,
    q_subword_counts, q_term_doc_freq, q_tfidf_top_terms, q_token_stats,
    q_top_terms_per_lang, q_word_commonness, q_word_freq,
)
from .q_vector import (
    _MKNN_K, _MKNN_SCALE, q_audio_chunks, q_cluster_homogeneity,
    q_embedding_dim_stats, q_image_features, q_kmeans_fixed, q_knn_cosine,
    q_knn_ivf, q_knn_ivf_full, q_knn_srp, q_label_hist, q_mutual_knn,
    q_video_frames,
)
from .q_web import (
    _gold, _kg_oracle_sqls, _synthetic_pages_dir, _web_oracle_sqls,
    q_alias_mention_counts, q_anchor_texts, q_crawl_frontier,
    q_dangling_links, q_entity_cooccurrence, q_host_link_graph,
    q_host_pagerank, q_host_reciprocity, q_kg_edges, q_kg_two_hop,
    q_mention_confusion, q_pred_type_matrix, q_redirect_resolve,
    q_rendezvous_shards, q_robots_filter, q_triple_provenance,
    q_triple_support, q_url_canonical_dedup, _crawlops_oracle_sqls,
    q_url_inlink_topk, q_link_graph_diff, q_budget_allocation,
    q_politeness_slots, q_entity_degree, _assoc_oracle_sqls,
    q_entity_lift, q_host_spam_features, q_anchor_salience,
    _batch4_oracle_sqls, q_entity_timeline, q_triple_conflicts,
    q_hourly_topk_types, _spread_oracle_sql, q_entity_host_spread,
    _wpr_oracle_sql, q_host_pagerank_weighted,
    _predprof_oracle_sql, q_pred_cardinality_profile,
)
from .q_stream import (
    _ACTIVE_WINDOW_S, _DEBOUNCE_S, _EVENT_TYPES, _FUNNEL_STEPS, _PATH_GAP_US,
    _PATH_TOP_K, _TOPK_PER_GROUP, q_abandoned_views, q_click_after_purchase,
    q_cumulative_distinct_users, q_daily_locf, q_daily_ohlc,
    q_decayed_clicks, q_event_gaps, q_event_type_comovement,
    q_event_type_transitions, q_events_anomalies, q_events_calendar,
    q_events_cusum, q_events_debounced, q_events_hourly, q_events_pivot,
    q_events_sliding, q_events_trailing7, q_late_events, q_merge_upsert,
    q_peak_concurrency, q_profile_events, q_props_novelty, q_props_stats,
    q_purchase_clicks_window, q_record_highs, q_running_total,
    q_sliding_distinct_users, q_snapshot_delta, q_top3_events_per_user,
    q_top_event_per_user, q_top_session_paths, q_user_active_seconds,
    q_user_event_seq, q_user_event_stats, q_user_funnel, q_user_pareto,
    q_user_retention, q_user_sessions, q_user_sessions_segmented,
    q_user_streaks,
    q_user_time_weighted_value,    q_session_duration_quantiles,
)
from .q_stats import (
    _HQ_BIN_CENTS, _KT_BUCKETS, _value_hist, q_customer_p90_spend,
    q_key_skew_stats, q_price_deciles, q_price_qty_cov, q_price_qty_hist2d,
    q_spend_gini, q_spend_kendall_tau, q_spend_rank_corr, q_user_type_gini,
    q_value_hist_quantiles, q_value_mad, q_value_mannwhitney_u,
    q_value_median, q_value_minmax, q_value_mode, q_value_outliers,
    q_value_p90, q_value_trend, q_value_trimmed_mean, q_weighted_median,
)
from .q_graph import (
    _NEG_K, _WALK_A, _WALK_B, _WALK_C, _WALK_P, _WALK_STEPS, _co_edges_sql,
    _graph_edges, _lpa_sql, _pagerank_sql, _ppr_sql, _sssp_sql, _walk_hash,
    q_component_size_hist, q_graph_assortativity, q_graph_clustering,
    q_graph_components, q_graph_degree, q_graph_harmonic, q_graph_khop,
    q_graph_lpa, q_graph_neighbor_degree, q_graph_pagerank, q_graph_ppr,
    q_graph_sssp, q_graph_triangles, q_graph_walks, q_kcore, q_link_predict,
    q_negative_edges,
)
from .q_sketch import (
    _CKSUM_P1, _CKSUM_P2, _KMV_K, q_cms_users, q_distinct_users_per_type,
    q_hdr_quantiles, q_hdr_quantiles_by_type, q_heavy_hitters,
    q_hll_join_card, q_hll_per_type, q_hll_users, q_kmv_users,
    q_table_checksum,
)
from .q_sample import (
    SEQ_CAPACITY, _MIX_DEFAULT, _MIX_RATES, _MIX_TARGET, _WS_K,
    q_balanced_sample, q_best_fold, q_coverage_select, q_curriculum_pack,
    q_doc_sample_hash, q_fold_counts, q_fold_stats, q_per_source_sample,
    q_sample_events, q_seq_packing, q_stratified_sample, q_temperature_mix,
    q_weighted_sample,
)



def queries() -> dict:
    """One entry per implemented operator (SURVEY.md §2 / §2.11).

    ORDERING CONTRACT: the external correctness harness verifies the FIRST 50
    dict entries against ``oracle_sql()`` (rows + schema + value hash).
    Rounds 1–2 (CORRECTNESS_r01/r02.json) attested 57 distinct oracle-backed
    entries; this round's window holds ALL 39 oracle-backed operators never
    driver-checked before (including this round's dup_ngram_fraction /
    neardup_keep / scd_segment_orders) plus flagship representatives kept
    from round 2 — one per physical-plan family (agg scan, hash-join chain,
    global rank, interval join) — so across the rounds EVERY oracle-backed
    entry has a driver row.
    Entries after position 50 remain fully hash-checked by
    tests/test_queries_oracle.py, which runs EVERY entry that has an
    ``oracle_sql()`` string, window or not. The late-round-3 additions
    (positions ~89+: co-occurrence/lift/3-itemsets, LPA/SSSP/assortativity,
    mode/MAD/trend/Gini/min-max, NTILE/skyline/Spearman, streaks/interval
    union/debounce/TWA/trailing-window/paths, profiler/integrity/golden
    records/SNM/balanced sample/novelty/temporal anti-join) were all
    additionally driver-mimic-checked at sf0.01 (tools/check_window_sf001)
    and are next-round window candidates. The continuation-session tail
    (pii_redact / pii_stats / quality_classifier, record_highs, lm_score,
    bm25_search, curriculum_pack, graph_harmonic) was likewise
    driver-mimic-checked at sf0.001 AND sf0.01 (tools/check_window_sf001).
    """
    return {
        # -- flagship representatives re-attested from round 2 ---------------
        "pricing_summary": q_pricing_summary,
        "revenue_by_region": q_revenue_by_region,
        "order_rank": q_order_rank,
        "purchase_clicks_window": q_purchase_clicks_window,
        # -- round-3 additions, never driver-checked -------------------------
        "dup_ngram_fraction": q_dup_ngram_fraction,
        "neardup_keep": q_neardup_keep,
        "scd_segment_orders": q_scd_segment_orders,
        # -- relational / aggregate shapes, never driver-checked -------------
        "nation_presence_outer": q_nation_presence_outer,
        "snapshot_delta": q_snapshot_delta,
        "value_hist_quantiles": q_value_hist_quantiles,
        "table_checksum": q_table_checksum,
        "price_qty_cov": q_price_qty_cov,
        "price_deciles": q_price_deciles,
        "decayed_clicks": q_decayed_clicks,
        # -- window / stream shapes ----------------------------------------
        "user_funnel": q_user_funnel,
        # -- rank / sample / packing ----------------------------------------
        "stratified_sample": q_stratified_sample,
        "per_source_sample": q_per_source_sample,
        "weighted_sample": q_weighted_sample,
        # -- dedup / similarity families ------------------------------------
        "paragraph_dedup": q_paragraph_dedup,
        "normalized_dedup": q_normalized_dedup,
        "minhash_neardup": q_minhash_neardup,
        "ngram_jaccard_neardup": q_ngram_jaccard_neardup,
        "simhash": q_simhash,
        "setsim_neardup": q_setsim_neardup,
        "domain_dup_rate": q_domain_dup_rate,
        "knn_ivf_full": q_knn_ivf_full,
        "kmeans_fixed": q_kmeans_fixed,
        # -- text curation ---------------------------------------------------
        "heavy_hitters": q_heavy_hitters,
        "langid": q_langid,
        "quality": q_quality,
        "phrase_search": q_phrase_search,
        "subword_counts": q_subword_counts,
        "tfidf_top_terms": q_tfidf_top_terms,
        "pmi_bigrams": q_pmi_bigrams,
        "decontamination": q_decontamination,
        "fingerprint": q_fingerprint,
        "repetition_stats": q_repetition_stats,
        "length_buckets": q_length_buckets,
        "oov_rate": q_oov_rate,
        "word_commonness": q_word_commonness,
        # -- sketches / graph --------------------------------------------------
        "hll_users": q_hll_users,
        "hll_per_type": q_hll_per_type,
        "cms_users": q_cms_users,
        "graph_degree": q_graph_degree,
        "graph_triangles": q_graph_triangles,
        "graph_components": q_graph_components,
        "graph_pagerank": q_graph_pagerank,
        "graph_khop": q_graph_khop,
        "link_predict": q_link_predict,
        "kcore": q_kcore,
        # ---- position 51+: round-2-attested entries (green rows in
        # CORRECTNESS_r02.json) and the plan/rows-only entries; all
        # oracle-backed ones remain hash-checked by
        # tests/test_queries_oracle.py ------------------------------------------
        "customer_by_nation": q_customer_by_nation,
        "revenue_by_brand": q_revenue_by_brand,
        "shipping_priority": q_shipping_priority,
        "customer_order_counts": q_customer_order_counts,
        "bloom_semi_orders": q_bloom_semi_orders,
        "nations_without_suppliers": q_nations_without_suppliers,
        "orders_rollup": q_orders_rollup,
        "distinct_users_per_type": q_distinct_users_per_type,
        "value_median": q_value_median,
        "events_hourly": q_events_hourly,
        "user_sessions": q_user_sessions,
        "click_after_purchase": q_click_after_purchase,
        "fuzzy_part_names": q_fuzzy_part_names,
        "customers_with_orders": q_customers_with_orders,
        "top_event_per_user": q_top_event_per_user,
        "events_pivot": q_events_pivot,
        "word_freq": q_word_freq,
        "compression_ratio": q_compression_ratio,
        "nations_overlap": q_nations_overlap,
        "orders_above_avg": q_orders_above_avg,
        "events_sliding": q_events_sliding,
        "running_total": q_running_total,
        "top_orders": q_top_orders,
        "seq_packing": q_seq_packing,
        "exact_dedup": q_exact_dedup,
        "knn_cosine": q_knn_cosine,
        # round-3 late additions (oracle-backed; pytest-checked this round,
        # window candidates for the next)
        "orders_cube": q_orders_cube,
        "event_type_transitions": q_event_type_transitions,
        "top_terms_per_lang": q_top_terms_per_lang,
        "source_vocab_jaccard": q_source_vocab_jaccard,
        "sliding_distinct_users": q_sliding_distinct_users,
        "user_retention": q_user_retention,
        "key_skew_stats": q_key_skew_stats,
        "component_size_hist": q_component_size_hist,
        "nations_except_all": q_nations_except_all,
        "hll_join_card": q_hll_join_card,
        "doc_chunks": q_doc_chunks,
        "meta_blocking": q_meta_blocking,
        "value_outliers": q_value_outliers,
        "part_cooccurrence": q_part_cooccurrence,
        "user_type_gini": q_user_type_gini,
        "value_trend": q_value_trend,
        "order_deciles": q_order_deciles,
        "graph_lpa": q_graph_lpa,
        "value_mode": q_value_mode,
        "value_mad": q_value_mad,
        "lineitem_unpivot": q_lineitem_unpivot,
        "value_minmax": q_value_minmax,
        "user_streaks": q_user_streaks,
        "profile_events": q_profile_events,
        "readability": q_readability,
        "events_calendar": q_events_calendar,
        "user_active_seconds": q_user_active_seconds,
        "embedding_dim_stats": q_embedding_dim_stats,
        "graph_sssp": q_graph_sssp,
        "revenue_mom": q_revenue_mom,
        "nation_priority_grid": q_nation_priority_grid,
        "integrity_audit": q_integrity_audit,
        "sorted_neighborhood": q_sorted_neighborhood,
        "order_skyline": q_order_skyline,
        "events_debounced": q_events_debounced,
        "user_time_weighted_value": q_user_time_weighted_value,
        "part_triples": q_part_triples,
        "golden_records": q_golden_records,
        "graph_assortativity": q_graph_assortativity,
        "part_lift": q_part_lift,
        "events_trailing7": q_events_trailing7,
        "balanced_sample": q_balanced_sample,
        "props_novelty": q_props_novelty,
        "abandoned_views": q_abandoned_views,
        "top_session_paths": q_top_session_paths,
        "spend_rank_corr": q_spend_rank_corr,
        "value_trimmed_mean": q_value_trimmed_mean,
        "spend_kendall_tau": q_spend_kendall_tau,
        "nation_share_of_region": q_nation_share_of_region,
        "priority_month_chi2": q_priority_month_chi2,
        "orders_zorder": q_orders_zorder,
        "events_anomalies": q_events_anomalies,
        "inverted_index": q_inverted_index,
        "feature_hashing": q_feature_hashing,
        "negative_edges": q_negative_edges,
        "image_phash_neardup": q_image_phash_neardup,
        "order_cume_dist": q_order_cume_dist,
        "value_mannwhitney_u": q_value_mannwhitney_u,
        "user_pareto": q_user_pareto,
        "orders_zonemap": q_orders_zonemap,
        "dedup_ngram_spans": q_dedup_ngram_spans,
        "neardup_keep_best": q_neardup_keep_best,
        "customer_p90_spend": q_customer_p90_spend,
        "customers_without_urgent_orders": q_customers_without_urgent_orders,
        "customers_all_priorities": q_customers_all_priorities,
        "cumulative_distinct_users": q_cumulative_distinct_users,
        "curation_pipeline": q_curation_pipeline,
        "top3_events_per_user": q_top3_events_per_user,
        "user_event_seq": q_user_event_seq,
        "doc_sample_hash": q_doc_sample_hash,
        "user_event_stats": q_user_event_stats,
        "fold_counts": q_fold_counts,
        "props_stats": q_props_stats,
        "orders_by_month": q_orders_by_month,
        "distinct_langs": q_distinct_langs,
        "lang_stats": q_lang_stats,
        "union_nationkeys": q_union_nationkeys,
        "token_stats": q_token_stats,
        "label_hist": q_label_hist,
        "sample_events": q_sample_events,
        "fold_stats": q_fold_stats,
        "best_fold": q_best_fold,
        "part_type_prefix": q_part_type_prefix,
        "orders_priority_share": q_orders_priority_share,
        "ship_days": q_ship_days,
        "customer_only_nations": q_customer_only_nations,
        "event_gaps": q_event_gaps,
        "term_doc_freq": q_term_doc_freq,
        "value_p90": q_value_p90,
        "bigram_freq": q_bigram_freq,
        "knn_ivf": q_knn_ivf,
        "embedding_neardup": q_embedding_neardup,
        "image_features": q_image_features,
        "video_frames": q_video_frames,
        "audio_chunks": q_audio_chunks,
        "cluster_homogeneity": q_cluster_homogeneity,
        "mention_confusion": q_mention_confusion,
        "kg_edges": q_kg_edges,
        "host_link_graph": q_host_link_graph,
        "anchor_texts": q_anchor_texts,
        "host_pagerank": q_host_pagerank,
        # ---- late-round-3 additions (oracle-backed; next-round window
        # candidates — appended so the attested first-50 window is stable) ----
        "late_order_priority": q_late_order_priority,
        "top_return_customers": q_top_return_customers,
        "part_revenue_share": q_part_revenue_share,
        "supplier_diversity": q_supplier_diversity,
        "churned_high_value": q_churned_high_value,
        "orders_benford": q_orders_benford,
        "nations_intersect_all": q_nations_intersect_all,
        "waiting_suppliers": q_waiting_suppliers,
        "nation_pair_volume": q_nation_pair_volume,
        "top_supplier": q_top_supplier,
        "big_orders": q_big_orders,
        "brand_bracket_revenue": q_brand_bracket_revenue,
        "graph_clustering": q_graph_clustering,
        "segment_spend_skewed": q_segment_spend_skewed,
        "weighted_median": q_weighted_median,
        "graph_walks": q_graph_walks,
        "temperature_mix": q_temperature_mix,
        "mutual_knn": q_mutual_knn,
        "discount_revenue": q_discount_revenue,
        "brand_market_share": q_brand_market_share,
        "cheapest_supplier": q_cheapest_supplier,
        "events_cusum": q_events_cusum,
        "kmv_users": q_kmv_users,
        "rfm_segments": q_rfm_segments,
        "nation_profit": q_nation_profit,
        "returnflag_priority": q_returnflag_priority,
        "promo_revenue": q_promo_revenue,
        "excess_suppliers": q_excess_suppliers,
        "small_qty_revenue": q_small_qty_revenue,
        "bpe_pair_counts": q_bpe_pair_counts,
        "bpe_merges": q_bpe_merges,
        "hdr_quantiles": q_hdr_quantiles,
        "bucketed_join_revenue": q_bucketed_join_revenue,
        "spend_gini": q_spend_gini,
        "pii_redact": q_pii_redact,
        "pii_stats": q_pii_stats,
        "quality_classifier": q_quality_classifier,
        "record_highs": q_record_highs,
        "lm_score": q_lm_score,
        "bm25_search": q_bm25_search,
        "curriculum_pack": q_curriculum_pack,
        "graph_harmonic": q_graph_harmonic,
        "graph_ppr": q_graph_ppr,
        "knn_srp": q_knn_srp,
        "hdr_quantiles_by_type": q_hdr_quantiles_by_type,
        "order_count_distribution": q_order_count_distribution,
        "dsir_importance": q_dsir_importance,
        "graph_neighbor_degree": q_graph_neighbor_degree,
        "coverage_select": q_coverage_select,
        "peak_concurrency": q_peak_concurrency,
        "daily_ohlc": q_daily_ohlc,
        "late_events": q_late_events,
        "daily_locf": q_daily_locf,
        "price_qty_hist2d": q_price_qty_hist2d,
        "event_type_comovement": q_event_type_comovement,
        "merge_upsert": q_merge_upsert,
        "url_canonical_dedup": q_url_canonical_dedup,
        "crawl_frontier": q_crawl_frontier,
        "redirect_resolve": q_redirect_resolve,
        "rendezvous_shards": q_rendezvous_shards,
        "dangling_links": q_dangling_links,
        "robots_filter": q_robots_filter,
        # ---- round-4 additions (appended at the END — the driver window
        # convention): KG-analytics over the planted gold tables + three
        # TPC-H shapes on the slim schema; all oracle-backed ------------------
        "entity_cooccurrence": q_entity_cooccurrence,
        "triple_support": q_triple_support,
        "kg_two_hop": q_kg_two_hop,
        "alias_mention_counts": q_alias_mention_counts,
        "triple_provenance": q_triple_provenance,
        "pred_type_matrix": q_pred_type_matrix,
        "host_reciprocity": q_host_reciprocity,
        "brand_supplier_cnt": q_brand_supplier_cnt,
        "disjunctive_revenue": q_disjunctive_revenue,
        "idle_customers_by_segment": q_idle_customers_by_segment,
        # batch 2: crawl operations + KG-graph consumers
        "url_inlink_topk": q_url_inlink_topk,
        "link_graph_diff": q_link_graph_diff,
        "budget_allocation": q_budget_allocation,
        "politeness_slots": q_politeness_slots,
        "entity_degree": q_entity_degree,
        # batch 3: association strength + host profiles
        "entity_lift": q_entity_lift,
        "host_spam_features": q_host_spam_features,
        "anchor_salience": q_anchor_salience,
        # batch 4: KG temporal/consistency + windowed top-k
        "entity_timeline": q_entity_timeline,
        "triple_conflicts": q_triple_conflicts,
        "hourly_topk_types": q_hourly_topk_types,
        "entity_host_spread": q_entity_host_spread,
        "neardup_cluster_hist": q_neardup_cluster_hist,
        "session_duration_quantiles": q_session_duration_quantiles,
        "host_pagerank_weighted": q_host_pagerank_weighted,
        "pred_cardinality_profile": q_pred_cardinality_profile,
        # round-5: segmented-reduce sessionization — q_user_sessions'
        # result under a bot-proof physical plan (per-task heap bounded by
        # per-user-per-6h volume, not lifetime history); shares its oracle
        "user_sessions_segmented": q_user_sessions_segmented,
    }


_ONES = "[" + ", ".join(["1.0"] * EMBED_DIM) + "]"

_W64 = 1 << 64          # uint64 wraparound modulus
_B59 = 1 << 59          # bucket mask (band_buckets _BUCKET_BITS)
_FNV_P = 1099511628211
_FNV_O = 14695981039346656037


def _lsh_oracle_sql(shingle_expr: str, threshold: float,
                    n_bands: int = 16, num_perm: int = 64,
                    bucket_cap: int = 64, source: str = "documents") -> str:
    """DuckDB replication of functions/dedup.py lsh_near_dup_pairs, bit for
    bit: md5-top-8-byte shingle hash, uint64 linear permutations mod the
    Mersenne prime (minhash_signature_sql), FNV band polynomial → injective
    bucket ids (band_buckets), bucket_cap with the sorted-chain skew fallback,
    exact-Jaccard verify in integer ppm. Assumes no document has an empty
    shingle set (testdata min doc length asserted in tests — same assumption
    as the fingerprint oracle)."""
    from ..functions.textfns import _MH_A, _MH_B

    rows = num_perm // n_bands
    perm_rows = ",\n                ".join(
        f"({p}, {int(_MH_A[p])}, {int(_MH_B[p])})" for p in range(num_perm)
    )
    band_cols = ",\n                   ".join(
        f"MAX(CASE WHEN p % {rows} = {i} THEN v END) AS v{i}" for i in range(rows)
    )
    poly = f"{_FNV_O}::HUGEINT"
    for i in range(rows):
        poly = f"(({poly}) * {_FNV_P} + v{i}) % {_W64}"
    return f"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
            FROM {source}
        ),
        shing AS (
            SELECT DISTINCT doc_id, sh FROM (
                SELECT doc_id, unnest({shingle_expr}) AS sh FROM toks)
        ),
        hashes AS (
            SELECT doc_id, ('0x' || substr(md5(sh), 1, 16))::UBIGINT AS h
            FROM shing
        ),
        perms(p, a, b) AS (VALUES
                {perm_rows}),
        sig AS (
            SELECT doc_id, p,
                   MIN(CAST(((CAST(a AS HUGEINT) * h + b) % {_W64})
                            % 2305843009213693951 AS BIGINT)) AS v
            FROM hashes CROSS JOIN perms GROUP BY doc_id, p
        ),
        bandvals AS (
            SELECT doc_id, p // {rows} AS bj,
                   {band_cols}
            FROM sig GROUP BY doc_id, p // {rows}
        ),
        buckets AS (
            SELECT doc_id,
                   CAST(bj AS BIGINT) * {_B59}
                     + CAST(({poly}) % {_B59} AS BIGINT) AS bucket
            FROM bandvals
        ),
        sized AS (
            SELECT bucket, doc_id,
                   COUNT(*) OVER (PARTITION BY bucket) AS n,
                   ROW_NUMBER() OVER (PARTITION BY bucket ORDER BY doc_id) AS rn
            FROM buckets
        ),
        cand AS (
            SELECT DISTINCT id_a, id_b FROM (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b
                FROM sized a JOIN sized b
                  ON a.bucket = b.bucket AND a.doc_id < b.doc_id
                WHERE a.n <= {bucket_cap}
                UNION ALL
                SELECT a.doc_id, b.doc_id
                FROM sized a JOIN sized b
                  ON a.bucket = b.bucket AND b.rn = a.rn + 1
                WHERE a.n > {bucket_cap})
        ),
        sizes AS (SELECT doc_id, COUNT(*) AS ns FROM shing GROUP BY doc_id),
        inter AS (
            SELECT c.id_a, c.id_b, COUNT(*) AS ni
            FROM cand c
            JOIN shing sa ON sa.doc_id = c.id_a
            JOIN shing sb ON sb.doc_id = c.id_b AND sb.sh = sa.sh
            GROUP BY c.id_a, c.id_b
        )
        SELECT i.id_a, i.id_b,
               CAST((ni * 1000000) // (za.ns + zb.ns - ni) AS BIGINT)
                   AS jaccard_ppm
        FROM inter i
        JOIN sizes za ON za.doc_id = i.id_a
        JOIN sizes zb ON zb.doc_id = i.id_b
        WHERE CAST(ni AS DOUBLE) / (za.ns + zb.ns - ni) >= {threshold}
    """


def _wordpiece_oracle_sql() -> str:
    """DuckDB replication of greedy longest-match WordPiece token COUNTS
    (functions/wordpiece.py): the longest-match table is computed with a
    bounded substring × vocab HASH join (piece lengths ≤ max vocab piece
    length, so candidates are words × positions × ~13 — no nested-loop
    matching), then a recursive CTE follows each word's greedy chain;
    all-or-nothing [UNK] (chain stalls or length > 64 → 1 piece)."""
    from ..functions.wordpiece import _DEFAULT_VOCAB

    pieces, maxlen = [], 0
    with open(_DEFAULT_VOCAB, encoding="utf-8") as fh:
        for line in fh:
            p = line.rstrip("\n")
            pieces.append(p.replace("'", "''"))
            maxlen = max(maxlen, len(p))
    vocab_rows = ", ".join(f"('{p}')" for p in pieces)
    len_rows = ", ".join(f"({l})" for l in range(1, maxlen + 1))
    return f"""
        WITH RECURSIVE vocab(piece) AS (VALUES {vocab_rows}),
        lens(l) AS (VALUES {len_rows}),
        doc_words AS (
            SELECT doc_id,
                   unnest(list_filter(string_split_regex(text, '\\s+'),
                                      x -> x <> '')) AS word
            FROM documents
        ),
        words AS (SELECT DISTINCT word FROM doc_words),
        states AS (
            SELECT word, unnest(range(0, length(word))) AS pos
            FROM words WHERE length(word) <= 64
        ),
        cand AS (
            SELECT st.word, st.pos, lens.l,
                   CASE WHEN st.pos = 0 THEN substr(st.word, 1, lens.l)
                        ELSE '##' || substr(st.word, st.pos + 1, lens.l)
                   END AS key
            FROM states st CROSS JOIN lens
            WHERE st.pos + lens.l <= length(st.word)
        ),
        best AS (
            SELECT c.word, c.pos, MAX(c.l) AS adv
            FROM cand c JOIN vocab v ON v.piece = c.key
            GROUP BY c.word, c.pos
        ),
        seg AS (
            SELECT word, 0 AS pos, 0 AS n FROM words WHERE length(word) <= 64
            UNION ALL
            SELECT s.word, s.pos + b.adv, s.n + 1
            FROM seg s JOIN best b ON b.word = s.word AND b.pos = s.pos
            WHERE s.pos < length(s.word)
        ),
        wordn AS (
            SELECT w.word,
                   CASE WHEN length(w.word) > 64 THEN 1
                        WHEN f.endpos = length(w.word) THEN f.n
                        ELSE 1 END AS n_pieces
            FROM words w LEFT JOIN (
                SELECT word, MAX(pos) AS endpos, arg_max(n, pos) AS n
                FROM seg GROUP BY word
            ) f ON f.word = w.word
        )
        SELECT d.doc_id, CAST(COALESCE(agg.s, 0) AS BIGINT) AS n_subwords
        FROM documents d LEFT JOIN (
            SELECT dw.doc_id, SUM(wn.n_pieces) AS s
            FROM doc_words dw JOIN wordn wn ON wn.word = dw.word
            GROUP BY dw.doc_id
        ) agg ON agg.doc_id = d.doc_id
    """


_WORD3_SHINGLES = """CASE
                    WHEN len(ws) >= 3 THEN list_transform(
                        range(1, len(ws) - 1),
                        i -> ws[i] || ' ' || ws[i + 1] || ' ' || ws[i + 2])
                    WHEN len(ws) >= 1 THEN [array_to_string(ws, ' ')]
                    ELSE CAST([] AS VARCHAR[]) END"""


def _kmeans_oracle_sql(k: int = 8, n_iters: int = 3) -> str:
    """DuckDB replication of functions/kmeans.py kmeans_fixed: quantize with
    the identical IEEE double ops, seed from the k lowest vec_ids, unroll
    ``n_iters`` (assign → update) rounds as CTEs (graph_pagerank's trick),
    final assignment against the settled centroids. Ties broken by lowest
    cluster index on both sides; ``//`` operands are strictly positive by
    construction so truncation == floor."""
    from ..functions.kmeans import KM_OFFSET, KM_SCALE

    parts = [f"""q AS (
      SELECT vec_id, dim,
             CAST(floor((CAST(v AS DOUBLE) + {KM_OFFSET}) * {KM_SCALE}) AS BIGINT) AS x
      FROM (SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS dim,
                   unnest(embedding) AS v FROM embeddings)),
    seeds AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cj
              FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})),
    c0 AS (SELECT s.cj, q.dim, q.x AS c FROM seeds s JOIN q USING (vec_id))"""]
    for r in range(1, n_iters + 1):
        parts.append(f"""d{r} AS (
        SELECT q.vec_id, c.cj, SUM((q.x - c.c) * (q.x - c.c)) AS d
        FROM q JOIN c{r - 1} c USING (dim) GROUP BY q.vec_id, c.cj),
    a{r} AS (SELECT vec_id, cj FROM (
          SELECT vec_id, cj,
                 row_number() OVER (PARTITION BY vec_id ORDER BY d, cj) AS rn
          FROM d{r}) WHERE rn = 1),
    n{r} AS (SELECT a.cj, q.dim, CAST(SUM(q.x) // COUNT(*) AS BIGINT) AS c
        FROM a{r} a JOIN q USING (vec_id) GROUP BY a.cj, q.dim),
    c{r} AS (SELECT p.cj, p.dim, COALESCE(n.c, p.c) AS c
        FROM c{r - 1} p LEFT JOIN n{r} n ON n.cj = p.cj AND n.dim = p.dim)""")
    parts.append(f"""df AS (
        SELECT q.vec_id, c.cj, SUM((q.x - c.c) * (q.x - c.c)) AS d
        FROM q JOIN c{n_iters} c USING (dim) GROUP BY q.vec_id, c.cj)""")
    return "WITH " + ",\n    ".join(parts) + """
    SELECT vec_id, cj AS cluster FROM (
      SELECT vec_id, cj,
             row_number() OVER (PARTITION BY vec_id ORDER BY d, cj) AS rn
      FROM df) WHERE rn = 1"""


def _zorder_oracle_sql() -> str:
    """Morton interleave unrolled to 32 integer terms — bit i of zx lands at
    position 2i, bit i of zy at 2i+1, exactly mirroring q_orders_zorder's
    shift loop."""
    terms = []
    for i in range(_Z_BITS):
        terms.append(f"((zx // {1 << i}) % 2) * {1 << (2 * i)}")
        terms.append(f"((zy // {1 << i}) % 2) * {1 << (2 * i + 1)}")
    interleave = " + ".join(terms)
    return f"""
        WITH b AS (SELECT o_orderkey,
               LEAST(GREATEST(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                              // 4096, 0), 65535) AS zx,
               LEAST(GREATEST(CAST(FLOOR(epoch(o_orderdate) / 86400) AS BIGINT)
                              - 9131, 0), 65535) AS zy
               FROM orders)
        SELECT o_orderkey, zx, zy,
               CAST({interleave} AS BIGINT) AS zvalue
        FROM b
    """


_PII_TEXT_SQL = """
            SELECT c_custkey,
                   CASE c_custkey % 3
                     WHEN 0 THEN 'reach ' || c_name || ' at cust'
                          || c_custkey || '@example.com or 555-'
                          || lpad(CAST((c_custkey * 7) % 1000 AS VARCHAR),
                                  3, '0')
                          || '-'
                          || lpad(CAST((c_custkey * 13) % 10000 AS VARCHAR),
                                  4, '0')
                     WHEN 1 THEN c_name || ' logged in from 10.'
                          || (c_custkey % 256) || '.'
                          || ((c_custkey // 256) % 256) || '.'
                          || (c_custkey % 250)
                          || ' while browsing ' || c_mktsegment
                     ELSE 'no contact on file for ' || c_name || ' in '
                          || c_mktsegment
                   END AS text
            FROM customer
"""


def oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> dict:
    """ANSI-SQL oracle per oracle-backed queries() entry.

    ``sf_dir`` parameterizes ONLY the web-family oracles, whose gold tables
    live in the sf-keyed synthetic-pages cache (everything else reads the
    driver's pre-registered views). The default matches the driver's sf0.01
    correctness run — the driver calls ``oracle_sql()`` with no arguments;
    tests/tools comparing at another sf pass their own sf_dir so the Ray
    side and the oracle read the SAME fixture. Building the dict ensures
    the fixture (pages + gold tables + robots cache) exists — generation is
    deterministic and sentinel-cached."""
    from ..functions.pii import EMAIL_RE, IPV4_RE, PHONE_RE
    from ..sources.pages import write_robots

    pdir = _synthetic_pages_dir(sf_dir)
    if not os.path.exists(os.path.join(pdir, "robots.parquet")):
        write_robots(pdir, seed=42)
    web = _web_oracle_sqls(pdir)
    kg = _kg_oracle_sqls(pdir)
    crawlops = _crawlops_oracle_sqls(pdir)
    assoc = _assoc_oracle_sqls(pdir)
    batch4 = _batch4_oracle_sqls(pdir)
    spread = _spread_oracle_sql(pdir)
    wpr = _wpr_oracle_sql(pdir)
    predprof = _predprof_oracle_sql(pdir)

    return {
        **web,
        **kg,
        **crawlops,
        **assoc,
        **batch4,
        **spread,
        **wpr,
        **predprof,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   SUM(l_quantity) AS sum_qty,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_cents,
                   COUNT(*) AS n_items
            FROM lineitem GROUP BY 1, 2
        """,
        "top_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "customer_by_nation": """
            SELECT n_name, COUNT(*) AS n_customers,
                   CAST(SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT) AS acctbal_cents
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "events_hourly": """
            SELECT CAST(FLOOR(epoch(ts) / 3600) AS BIGINT) AS window_id, event_type,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
            FROM events GROUP BY 1, 2
        """,
        "user_event_stats": """
            SELECT user_id, event_type, COUNT(*) AS n,
                   MAX(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS max_value_cents
            FROM events GROUP BY 1, 2
        """,
        "fold_counts": """
            SELECT doc_id % 5 AS fold, COUNT(*) AS n_docs FROM documents GROUP BY 1
        """,
        "doc_sample_hash": """
            SELECT doc_id FROM documents WHERE md5(CAST(doc_id AS VARCHAR)) < '2'
        """,
        "top_event_per_user": """
            SELECT user_id, event_id FROM events
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY user_id ORDER BY value DESC, event_id
            ) = 1
        """,
        "props_stats": """
            SELECT event_type, COUNT(*) AS n,
                   CAST(SUM(COALESCE(CAST(json_extract(props, '$.k') AS BIGINT), 0)) AS BIGINT)
                       AS sum_k
            FROM events GROUP BY event_type
        """,
        "orders_by_month": """
            SELECT strftime(o_orderdate, '%Y-%m') AS month, COUNT(*) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS total_cents
            FROM orders GROUP BY 1
        """,
        "distinct_langs": "SELECT DISTINCT lang FROM documents",
        "lang_stats": """
            SELECT lang, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang
        """,
        "word_freq": """
            SELECT w AS token, COUNT(*) AS n
            FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
                  FROM documents)
            GROUP BY w HAVING COUNT(*) >= 5
        """,
        "exact_dedup": """
            SELECT md5(text) AS h, MIN(doc_id) AS keep_id, COUNT(*) AS n_dups
            FROM documents GROUP BY 1
        """,
        "union_nationkeys": """
            SELECT DISTINCT k FROM (
                SELECT CAST(c_nationkey AS BIGINT) AS k FROM customer
                UNION ALL
                SELECT CAST(s_nationkey AS BIGINT) AS k FROM supplier)
        """,
        "token_stats": """
            SELECT doc_id, CAST(length(text) AS BIGINT) AS text_len,
                   CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT) AS n_tokens
            FROM documents
        """,
        "label_hist": """
            SELECT CAST(label AS BIGINT) AS label, COUNT(*) AS n FROM embeddings GROUP BY 1
        """,
        "sample_events": """
            SELECT event_id, event_type FROM events WHERE event_id % 20 = 0
        """,
        "nations_without_suppliers": """
            SELECT CAST(n_nationkey AS BIGINT) AS n_nationkey, n_name FROM nation
            WHERE n_nationkey NOT IN (SELECT s_nationkey FROM supplier)
        """,
        "click_after_purchase": """
            SELECT c.event_id AS click_id, p.event_id AS purchase_id
            FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click') c
            ASOF JOIN (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase') p
              ON c.user_id = p.user_id AND c.ts >= p.ts
        """,
        "fold_stats": """
            SELECT fold, n AS n_docs,
                   CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mean_chars,
                   CAST(ss AS DOUBLE) / CAST(n AS DOUBLE)
                     - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                       * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) AS var_chars
            FROM (SELECT doc_id % 5 AS fold, COUNT(*) AS n,
                         CAST(SUM(n_chars) AS BIGINT) AS s,
                         CAST(SUM(n_chars * n_chars) AS BIGINT) AS ss
                  FROM documents GROUP BY 1)
        """,
        "best_fold": """
            SELECT fold, CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mean_chars
            FROM (SELECT doc_id % 5 AS fold, COUNT(*) AS n,
                         CAST(SUM(n_chars) AS BIGINT) AS s
                  FROM documents GROUP BY 1)
            ORDER BY mean_chars DESC, fold LIMIT 1
        """,
        "part_type_prefix": """
            SELECT upper(split_part(p_type, ' ', 1)) AS type_prefix,
                   COUNT(*) AS n, CAST(SUM(p_size) AS BIGINT) AS sum_size
            FROM part GROUP BY 1
        """,
        "orders_priority_share": """
            SELECT o_orderpriority, COUNT(*) AS n,
                   CAST(SUM(CASE WHEN o_totalprice > 150000 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_big
            FROM orders GROUP BY 1
        """,
        "ship_days": """
            SELECT l_returnflag, COUNT(*) AS n,
                   CAST(SUM(CAST(date_diff('day', TIMESTAMP '1995-01-01',
                                           l_shipdate) AS BIGINT)) AS BIGINT) AS sum_days
            FROM lineitem GROUP BY 1
        """,
        "customer_order_counts": """
            SELECT CAST(c_custkey AS BIGINT) AS c_custkey,
                   CAST(COUNT(o_custkey) AS BIGINT) AS n_orders
            FROM customer LEFT JOIN orders ON o_custkey = c_custkey
            GROUP BY 1
        """,
        "customers_with_orders": """
            SELECT CAST(c_custkey AS BIGINT) AS c_custkey FROM customer
            WHERE c_custkey IN (SELECT o_custkey FROM orders)
        """,
        "bloom_semi_orders": """
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer
                                WHERE c_mktsegment = 'BUILDING')
            GROUP BY 1
        """,
        "user_sessions": """
            SELECT user_id, COUNT(*) AS n_events,
                   CAST(1 + SUM(CASE WHEN gap_s > 3600 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_sessions
            FROM (SELECT user_id, epoch(ts) - lag(epoch(ts))
                           OVER (PARTITION BY user_id ORDER BY ts) AS gap_s
                  FROM events)
            GROUP BY user_id
        """,
        # the segmented-reduce plan computes the SAME sessions — one oracle
        "user_sessions_segmented": """
            SELECT user_id, COUNT(*) AS n_events,
                   CAST(1 + SUM(CASE WHEN gap_s > 3600 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_sessions
            FROM (SELECT user_id, epoch(ts) - lag(epoch(ts))
                           OVER (PARTITION BY user_id ORDER BY ts) AS gap_s
                  FROM events)
            GROUP BY user_id
        """,
        "order_rank": """
            SELECT o_orderkey, CAST(rn AS BIGINT) AS rank FROM (
                SELECT o_orderkey, ROW_NUMBER() OVER (
                    ORDER BY o_totalprice DESC, o_orderkey) AS rn
                FROM orders)
        """,
        "events_sliding": """
            SELECT window_id, event_type, COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS value_cents
            FROM (
                SELECT unnest([h, h - 1]) AS window_id, event_type, value
                FROM (SELECT CAST(FLOOR(epoch(ts) / 3600) AS BIGINT) AS h,
                             event_type, value
                      FROM events)
            ) GROUP BY 1, 2
        """,
        "value_median": """
            SELECT event_type, COUNT(*) AS n,
                   CAST(median(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS DOUBLE)
                       AS median_cents
            FROM events GROUP BY 1
        """,
        "orders_rollup": """
            SELECT COALESCE(o_orderpriority, 'ALL') AS priority,
                   COALESCE(month, 'ALL') AS month,
                   COUNT(*) AS n_orders,
                   CAST(SUM(cents) AS BIGINT) AS total_cents
            FROM (SELECT o_orderpriority, strftime(o_orderdate, '%Y-%m') AS month,
                         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
                  FROM orders)
            GROUP BY GROUPING SETS ((o_orderpriority, month), (o_orderpriority), ())
        """,
        "running_total": """
            SELECT event_id,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents
            FROM events
        """,
        "revenue_by_region": """
            SELECT r_name, COUNT(*) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS total_cents
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "purchase_clicks_window": """
            SELECT c.event_id AS click_id, p.event_id AS purchase_id
            FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click') c
            JOIN (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase') p
              ON c.user_id = p.user_id AND c.ts >= p.ts
             AND epoch_us(c.ts) - epoch_us(p.ts) <= 86400000000
        """,
        "bigram_freq": """
            SELECT bg AS bigram, COUNT(*) AS n FROM (
                SELECT unnest(list_transform(range(1, len(ws)),
                                             i -> ws[i] || ' ' || ws[i + 1])) AS bg
                FROM (SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                      FROM documents)
            ) GROUP BY bg HAVING COUNT(*) >= 5
        """,
        # score = tf/df is ONE exactly-rounded IEEE division on both sides,
        # so the ordering (score DESC, term ASC) agrees bit-for-bit
        "tfidf_top_terms": f"""
            WITH tok AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
                FROM documents),
            df AS (
                SELECT token, COUNT(*) AS df
                FROM (SELECT DISTINCT doc_id, token FROM tok)
                GROUP BY token HAVING COUNT(*) >= {_TFIDF_MIN_DF}),
            tf AS (
                SELECT doc_id, token, COUNT(*) AS tf FROM tok
                GROUP BY doc_id, token)
            SELECT doc_id, token AS term, tf, df, rank FROM (
                SELECT t.doc_id, t.token, t.tf, d.df,
                       ROW_NUMBER() OVER (
                           PARTITION BY t.doc_id
                           ORDER BY CAST(t.tf AS DOUBLE) / d.df DESC, t.token
                       ) AS rank
                FROM tf t JOIN df d USING (token)
            ) WHERE rank <= {_TFIDF_TOP}
        """,
        "normalized_dedup": r"""
            SELECT md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS h,
                   MIN(doc_id) AS keep_id, COUNT(*) AS n_dups
            FROM documents GROUP BY 1
        """,
        # PMI ordering with corpus-size terms constant reduces to
        # n_xy/(n_x*n_y); the double expression is written identically on
        # both sides (one multiply, one divide) so ties agree exactly
        "pmi_bigrams": f"""
            WITH toks AS (
                SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents),
            uni AS (
                SELECT w AS token, COUNT(*) AS n
                FROM (SELECT unnest(ws) AS w FROM toks) GROUP BY w),
            bi AS (
                SELECT bg AS bigram, COUNT(*) AS n_xy FROM (
                    SELECT unnest(list_transform(range(1, len(ws)),
                                                 i -> ws[i] || ' ' || ws[i + 1])) AS bg
                    FROM toks)
                GROUP BY bg HAVING COUNT(*) >= {_PMI_MIN_N})
            SELECT bigram, n_xy, n_x, n_y, rank FROM (
                SELECT b.bigram, b.n_xy, ux.n AS n_x, uy.n AS n_y,
                       ROW_NUMBER() OVER (
                           ORDER BY CAST(b.n_xy AS DOUBLE)
                                    / (CAST(ux.n AS DOUBLE) * CAST(uy.n AS DOUBLE))
                                    DESC,
                                    b.bigram
                       ) AS rank
                FROM bi b
                JOIN uni ux ON ux.token = string_split(b.bigram, ' ')[1]
                JOIN uni uy ON uy.token = string_split(b.bigram, ' ')[2]
            ) WHERE rank <= {_PMI_TOP}
        """,
        # bucket = bit_length(n_tokens) - 1, pure-integer via bin();
        # empty docs pinned to bucket -1 on both sides
        "length_buckets": """
            SELECT lang,
                   CASE WHEN n_tokens = 0 THEN -1
                        ELSE CAST(length(bin(n_tokens)) - 1 AS BIGINT)
                   END AS bucket,
                   COUNT(*) AS n_docs
            FROM (SELECT lang,
                         len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS n_tokens
                  FROM documents)
            GROUP BY 1, 2
        """,
        # HLL registers: bucket = top 8 md5 bits, rho = 57 - bit_length of
        # the 56-bit remainder (bin() is minimal-width, so length(bin(x)) ==
        # bit_length(x) for x > 0; the rem = 0 case pins rho = 57)
        "hll_users": f"""
            WITH h AS (
                SELECT ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS h
                FROM events),
            r AS (
                SELECT CAST(h >> 56 AS BIGINT) AS bucket,
                       CAST(h & CAST({(1 << 56) - 1} AS UBIGINT) AS BIGINT) AS rem
                FROM h)
            SELECT bucket,
                   MAX(57 - CASE WHEN rem = 0 THEN 0
                                 ELSE length(bin(rem)) END) AS rho
            FROM r GROUP BY bucket
        """,
        # HLL merge law: the union sketch is the per-bucket MAX of the two
        # sides' registers — same md5/bucket/rho convention as hll_users
        "hll_join_card": f"""
            WITH ha AS (
                SELECT ('0x' || substr(md5(CAST(o_custkey AS VARCHAR)), 1, 16))::UBIGINT AS h
                FROM orders),
            ra AS (
                SELECT CAST(h >> 56 AS BIGINT) AS bucket,
                       MAX(57 - CASE WHEN (h & CAST({(1 << 56) - 1} AS UBIGINT)) = 0 THEN 0
                                     ELSE length(bin(CAST(h & CAST({(1 << 56) - 1} AS UBIGINT) AS BIGINT)))
                                END) AS rho
                FROM ha GROUP BY 1),
            hb AS (
                SELECT ('0x' || substr(md5(CAST(c_custkey AS VARCHAR)), 1, 16))::UBIGINT AS h
                FROM customer),
            rb AS (
                SELECT CAST(h >> 56 AS BIGINT) AS bucket,
                       MAX(57 - CASE WHEN (h & CAST({(1 << 56) - 1} AS UBIGINT)) = 0 THEN 0
                                     ELSE length(bin(CAST(h & CAST({(1 << 56) - 1} AS UBIGINT) AS BIGINT)))
                                END) AS rho
                FROM hb GROUP BY 1)
            SELECT 'a' AS side, bucket, rho FROM ra
            UNION ALL SELECT 'b' AS side, bucket, rho FROM rb
            UNION ALL
            SELECT 'u' AS side, bucket, MAX(rho) AS rho
            FROM (SELECT * FROM ra UNION ALL SELECT * FROM rb) GROUP BY 2
        """,
        # grouped HLL: same md5/bucket/rho convention as hll_users, keyed by
        # event_type — COUNT(DISTINCT)-per-group as a 256-row-per-group sketch
        "hll_per_type": f"""
            WITH h AS (
                SELECT event_type,
                       ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS h
                FROM events),
            r AS (
                SELECT event_type, CAST(h >> 56 AS BIGINT) AS bucket,
                       CAST(h & CAST({(1 << 56) - 1} AS UBIGINT) AS BIGINT) AS rem
                FROM h)
            SELECT event_type, bucket,
                   MAX(57 - CASE WHEN rem = 0 THEN 0
                                 ELSE length(bin(rem)) END) AS rho
            FROM r GROUP BY event_type, bucket
        """,
        # exact product-moment covariance: HUGEINT combine of int64 partial
        # sums; // truncates toward zero in DuckDB — the engine mirrors that
        "price_qty_cov": """
            WITH m AS (
                SELECT l_returnflag,
                       CAST(floor(l_quantity + 0.5) AS BIGINT) AS x,
                       CAST(floor(l_extendedprice) AS BIGINT) AS y
                FROM lineitem)
            SELECT l_returnflag,
                   COUNT(*) AS n_rows,
                   CAST(CAST(COUNT(*) AS HUGEINT) * SUM(x * y)
                        - SUM(x) * SUM(y) AS BIGINT) AS cov_num,
                   CAST((CAST(COUNT(*) AS HUGEINT) * SUM(x * y)
                         - SUM(x) * SUM(y))
                        // (CAST(COUNT(*) AS HUGEINT) * COUNT(*)) AS BIGINT)
                       AS cov_avg
            FROM m GROUP BY l_returnflag
        """,
        # equi-depth decile boundaries at ranks floor(n*d/10) under the
        # total order (cents, orderkey)
        "price_deciles": """
            WITH c AS (
                SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents,
                       o_orderkey
                FROM orders),
            r AS (
                SELECT cents,
                       ROW_NUMBER() OVER (ORDER BY cents, o_orderkey) AS rn
                FROM c),
            n AS (SELECT COUNT(*) AS cnt FROM orders)
            SELECT ds.d AS decile, r.cents AS boundary_cents
            FROM (SELECT UNNEST(range(1, 10)) AS d) ds
            CROSS JOIN n
            JOIN r ON r.rn = (n.cnt * ds.d) // 10
        """,
        # fixed-point exponential decay: cents >> age == cents // 2^age for
        # cents >= 0 (events.value > 0 in the testdata generator)
        "decayed_clicks": """
            WITH a AS (SELECT MAX(epoch_us(ts)) AS ts0 FROM events),
            c AS (
                SELECT user_id,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
                       LEAST((a.ts0 - epoch_us(ts)) // 86400000000, 62) AS age
                FROM events CROSS JOIN a
                WHERE event_type = 'click')
            SELECT user_id, COUNT(*) AS n_clicks,
                   CAST(SUM(cents // (1::BIGINT << CAST(age AS INTEGER)))
                        AS BIGINT) AS decayed_cents
            FROM c GROUP BY user_id
        """,
        "nation_presence_outer": """
            WITH c AS (
                SELECT CAST(c_nationkey AS BIGINT) AS nationkey, COUNT(*) AS n_cust
                FROM customer WHERE c_custkey <= 50 GROUP BY 1),
            s AS (
                SELECT CAST(s_nationkey AS BIGINT) AS nationkey, COUNT(*) AS n_supp
                FROM supplier WHERE s_suppkey <= 50 GROUP BY 1)
            SELECT COALESCE(c.nationkey, s.nationkey) AS nationkey,
                   COALESCE(n_cust, 0) AS n_cust, COALESCE(n_supp, 0) AS n_supp
            FROM c FULL OUTER JOIN s ON c.nationkey = s.nationkey
        """,
        # CMS counters: column j hash = md5('j:' || value) — only observed
        # cells emitted, matching the engine's nonzero filter
        "cms_users": """
            WITH rows_j AS (
                SELECT j, ('0x' || substr(md5(CAST(j AS VARCHAR) || ':'
                           || CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS h
                FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS j))
            SELECT CAST(j AS BIGINT) AS j, CAST(h % 256 AS BIGINT) AS col,
                   COUNT(*) AS n
            FROM rows_j GROUP BY 1, 2
        """,
        # eval set = docs with doc_id < 20; 8-grams unrolled as || chains
        "decontamination": f"""
            WITH tok AS (
                SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents),
            ng AS (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(ws) - {_DECON_N - 2}),
                           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' '
                                || ws[i+3] || ' ' || ws[i+4] || ' ' || ws[i+5]
                                || ' ' || ws[i+6] || ' ' || ws[i+7])) AS g
                FROM tok),
            bench AS (SELECT DISTINCT g FROM ng WHERE doc_id < {_DECON_BENCH_IDS})
            SELECT doc_id, COUNT(DISTINCT g) AS n_overlap
            FROM ng JOIN bench USING (g)
            WHERE doc_id >= {_DECON_BENCH_IDS}
            GROUP BY doc_id
        """,
        "repetition_stats": """
            WITH tok AS (
                SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents),
            bi AS (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(ws)),
                                             i -> ws[i] || ' ' || ws[i+1])) AS bg
                FROM tok),
            top AS (
                SELECT doc_id, MAX(c) AS top_bigram_n
                FROM (SELECT doc_id, bg, COUNT(*) AS c FROM bi GROUP BY doc_id, bg)
                GROUP BY doc_id)
            SELECT t.doc_id,
                   CAST(len(t.ws) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(t.ws)) AS BIGINT) AS n_distinct,
                   CAST(COALESCE(top.top_bigram_n, 0) AS BIGINT) AS top_bigram_n
            FROM tok t LEFT JOIN top USING (doc_id)
        """,
        # duplicated-8-gram fraction: same md5-top-8-byte gram hash as the
        # engine (collisions, were any to occur, would affect both sides
        # identically); only integer counts reach the output
        "dup_ngram_fraction": f"""
            WITH tok AS (
                SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents),
            grams AS (
                SELECT DISTINCT doc_id,
                       ('0x' || substr(md5(g), 1, 16))::UBIGINT AS h
                FROM (SELECT doc_id,
                             unnest(list_transform(
                                 range(1, len(ws) - {_DUPNG_N - 2}),
                                 i -> array_to_string(ws[i:i+{_DUPNG_N - 1}], ' ')))
                                 AS g
                      FROM tok)),
            cnts AS (SELECT h, COUNT(*) AS nd FROM grams GROUP BY h),
            per AS (
                SELECT g.doc_id, COUNT(*) AS n_ngrams,
                       SUM(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS n_shared
                FROM grams g JOIN cnts c ON c.h = g.h
                GROUP BY g.doc_id)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(n_ngrams AS BIGINT) AS n_ngrams,
                   CAST(n_shared AS BIGINT) AS n_shared,
                   CAST(n_shared * 1000000 // n_ngrams AS BIGINT) AS shared_ppm
            FROM per
        """,
        # exact-substring span removal: same md5-top-8-byte gram identity as
        # dup_ngram_fraction; coverage = windowed MAX over flagged gram
        # starts; kept text re-joined with string_agg
        "dedup_ngram_spans": f"""
            WITH tok AS (
                SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents),
            pos AS (
                SELECT doc_id, unnest(range(1, len(ws) + 1)) AS p,
                       unnest(ws) AS tk
                FROM tok),
            starts AS (
                SELECT doc_id,
                       unnest(range(1, len(ws) - {_DUPNG_N - 2})) AS p,
                       unnest(list_transform(
                           range(1, len(ws) - {_DUPNG_N - 2}),
                           i -> ('0x' || substr(md5(array_to_string(
                                    ws[i:i+{_DUPNG_N - 1}], ' ')), 1, 16))::UBIGINT))
                           AS h
                FROM tok),
            cnt AS (
                SELECT h FROM (SELECT DISTINCT doc_id, h FROM starts)
                GROUP BY h HAVING COUNT(*) >= 2),
            flag AS (
                SELECT s.doc_id, s.p, 1 AS f
                FROM starts s JOIN cnt c ON c.h = s.h),
            cov AS (
                SELECT t.doc_id, t.p, t.tk,
                       MAX(COALESCE(f.f, 0)) OVER (
                           PARTITION BY t.doc_id ORDER BY t.p
                           ROWS BETWEEN {_DUPNG_N - 1} PRECEDING AND CURRENT ROW)
                           AS covered
                FROM pos t LEFT JOIN flag f ON f.doc_id = t.doc_id AND f.p = t.p)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(covered) AS BIGINT) AS n_removed,
                   COALESCE(string_agg(CASE WHEN covered = 0 THEN tk END,
                                       ' ' ORDER BY p), '') AS kept_text
            FROM cov GROUP BY doc_id
        """,
        # full dedup decision: the banded-LSH pair plan replication composed
        # with the min-label reachability fixpoint (graph_components shape) —
        # keep row <=> doc_id == keep_id
        "neardup_keep": f"""
            WITH RECURSIVE pairs AS ({_lsh_oracle_sql(_WORD3_SHINGLES, 0.8)}),
            docs AS (SELECT CAST(doc_id AS BIGINT) AS id FROM documents),
            s AS (SELECT CAST(id_a AS BIGINT) AS src, CAST(id_b AS BIGINT) AS dst
                  FROM pairs
                  UNION
                  SELECT CAST(id_b AS BIGINT), CAST(id_a AS BIGINT) FROM pairs),
            reach(node, lbl) AS (
                SELECT DISTINCT src, src FROM s
                UNION
                SELECT s2.dst, r.lbl FROM reach r JOIN s s2 ON s2.src = r.node
            ),
            comp AS (SELECT node, MIN(lbl) AS rep FROM reach GROUP BY node)
            SELECT d.id AS doc_id, CAST(COALESCE(c.rep, d.id) AS BIGINT) AS keep_id
            FROM docs d LEFT JOIN comp c ON c.node = d.id
        """,
        # quality-weighted representative: same LSH + recursive-CC labels,
        # keeper = ROW_NUMBER() argmax on (ntok DESC, doc_id) per component
        "neardup_keep_best": f"""
            WITH RECURSIVE pairs AS ({_lsh_oracle_sql(_WORD3_SHINGLES, 0.8)}),
            docs AS (SELECT CAST(doc_id AS BIGINT) AS id FROM documents),
            s AS (SELECT CAST(id_a AS BIGINT) AS src, CAST(id_b AS BIGINT) AS dst
                  FROM pairs
                  UNION
                  SELECT CAST(id_b AS BIGINT), CAST(id_a AS BIGINT) FROM pairs),
            reach(node, lbl) AS (
                SELECT DISTINCT src, src FROM s
                UNION
                SELECT s2.dst, r.lbl FROM reach r JOIN s s2 ON s2.src = r.node
            ),
            comp AS (SELECT node, MIN(lbl) AS rep FROM reach GROUP BY node),
            lab AS (
                SELECT d.id AS doc_id, CAST(COALESCE(c.rep, d.id) AS BIGINT) AS comp
                FROM docs d LEFT JOIN comp c ON c.node = d.id),
            tokn AS (
                SELECT CAST(doc_id AS BIGINT) AS doc_id,
                       len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS ntok
                FROM documents),
            best AS (
                SELECT comp, doc_id AS keep_id FROM (
                    SELECT l.comp, l.doc_id,
                           ROW_NUMBER() OVER (PARTITION BY l.comp
                                              ORDER BY t.ntok DESC, l.doc_id) AS rn
                    FROM lab l JOIN tokn t ON t.doc_id = l.doc_id)
                WHERE rn = 1)
            SELECT l.doc_id, CAST(b.keep_id AS BIGINT) AS keep_id
            FROM lab l JOIN best b ON b.comp = l.comp
        """,
        # SCD-2 as-of join: latest dimension version with eff_day <= order day
        # (merge_asof backward is inclusive, matching <=); day boundaries are
        # exact because order timestamps are midnight-aligned
        "scd_segment_orders": f"""
            WITH dim AS (
                SELECT CAST(c_custkey AS BIGINT) AS k, CAST(0 AS BIGINT) AS eff_day,
                       c_mktsegment AS seg FROM customer
                UNION ALL
                SELECT CAST(c_custkey AS BIGINT),
                       {_SCD_DAY0} + CAST(c_custkey AS BIGINT) % 1500,
                       'UPGRADED-' || c_mktsegment FROM customer),
            o AS (SELECT o_orderkey, CAST(o_custkey AS BIGINT) AS k,
                         datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d
                  FROM orders),
            ranked AS (
                SELECT o.o_orderkey, dim.seg,
                       ROW_NUMBER() OVER (PARTITION BY o.o_orderkey
                                          ORDER BY dim.eff_day DESC) AS rn
                FROM o JOIN dim ON dim.k = o.k AND dim.eff_day <= o.d)
            SELECT seg AS segment, CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM ranked WHERE rn = 1 GROUP BY seg
        """,
        # graph family: co-purchase edges (u, v, n) = parts sharing n orders.
        # All outputs are exact integers; the PageRank oracle replicates the
        # engine's scaled-integer arithmetic op for op (floor division), so
        # even the iterative query hash-matches bit-for-bit.
        "graph_degree": f"""
            WITH e AS ({_co_edges_sql(1)}),
            d AS (SELECT node, COUNT(*) AS degree FROM
                  (SELECT u AS node FROM e UNION ALL SELECT v AS node FROM e)
                  GROUP BY node)
            SELECT degree, COUNT(*) AS n_nodes FROM d GROUP BY degree
        """,
        # wedge count follows the engine's degree-ordered orientation
        # (Σ C(outdeg, 2)); the triangle 3-join is orientation-independent
        "graph_triangles": f"""
            WITH e AS ({_co_edges_sql(1)}),
            d AS (SELECT node, COUNT(*) AS degree FROM
                  (SELECT u AS node FROM e UNION ALL SELECT v AS node FROM e)
                  GROUP BY node),
            o AS (SELECT CASE WHEN du.degree < dv.degree
                               OR (du.degree = dv.degree AND e.u < e.v)
                              THEN e.u ELSE e.v END AS src
                  FROM e JOIN d du ON du.node = e.u JOIN d dv ON dv.node = e.v)
            SELECT (SELECT COUNT(*) FROM d) AS n_nodes,
                   (SELECT COUNT(*) FROM e) AS n_edges,
                   (SELECT CAST(COALESCE(SUM(c * (c - 1) // 2), 0) AS BIGINT)
                    FROM (SELECT COUNT(*) AS c FROM o GROUP BY src)) AS n_wedges,
                   (SELECT COUNT(*) FROM e e1
                    JOIN e e2 ON e2.u = e1.v
                    JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v) AS n_triangles
        """,
        # min-label reachability fixpoint == the engine's min-label
        # propagation/union-find (comp = min node id in the component)
        "graph_components": f"""
            WITH RECURSIVE e AS ({_co_edges_sql(3)}),
            s AS (SELECT u AS src, v AS dst FROM e
                  UNION ALL SELECT v AS src, u AS dst FROM e),
            reach(node, lbl) AS (
                SELECT DISTINCT src, src FROM s
                UNION
                SELECT s2.dst, r.lbl FROM reach r JOIN s s2 ON s2.src = r.node
            )
            SELECT node, MIN(lbl) AS comp FROM reach GROUP BY node
        """,
        "component_size_hist": f"""
            WITH RECURSIVE e AS ({_co_edges_sql(3)}),
            s AS (SELECT u AS src, v AS dst FROM e
                  UNION ALL SELECT v AS src, u AS dst FROM e),
            reach(node, lbl) AS (
                SELECT DISTINCT src, src FROM s
                UNION
                SELECT s2.dst, r.lbl FROM reach r JOIN s s2 ON s2.src = r.node
            ),
            comp AS (SELECT node, MIN(lbl) AS comp FROM reach GROUP BY node),
            cs AS (SELECT comp, CAST(COUNT(*) AS BIGINT) AS n
                   FROM comp GROUP BY 1)
            SELECT CAST(length(bin(n)) - 1 AS BIGINT) AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_comps,
                   CAST(SUM(n) AS BIGINT) AS n_nodes
            FROM cs GROUP BY 1
        """,
        "graph_pagerank": _pagerank_sql(),
        "graph_ppr": _ppr_sql(),
        # 3 unrolled BFS relaxation rounds from the min node — each CTE is
        # labels ∪ (neighbors, hops+1) reduced by MIN, exactly the
        # hash_join + grouped-Min rounds of functions/graph.khop_distances
        "graph_khop": f"""
            WITH e AS ({_co_edges_sql(2)}),
            sym AS (SELECT u, v FROM e UNION ALL SELECT v, u FROM e),
            seed AS (SELECT MIN(u) AS s FROM sym),
            d0 AS (SELECT s AS node, 0 AS hops FROM seed),
            d1 AS (SELECT node, MIN(hops) AS hops FROM (
                     SELECT node, hops FROM d0
                     UNION ALL SELECT sym.v, 1 FROM sym JOIN d0 ON sym.u = d0.node)
                   GROUP BY node),
            d2 AS (SELECT node, MIN(hops) AS hops FROM (
                     SELECT node, hops FROM d1
                     UNION ALL SELECT sym.v, d1.hops + 1
                     FROM sym JOIN d1 ON sym.u = d1.node) GROUP BY node),
            d3 AS (SELECT node, MIN(hops) AS hops FROM (
                     SELECT node, hops FROM d2
                     UNION ALL SELECT sym.v, d2.hops + 1
                     FROM sym JOIN d2 ON sym.u = d2.node) GROUP BY node)
            SELECT CAST(node AS BIGINT) AS node, CAST(hops AS BIGINT) AS hops
            FROM d3
        """,
        # wedge join through shared centers, adjacency excluded — the plain
        # relational statement of common_neighbor_pairs' bucketed plan
        "link_predict": f"""
            WITH e AS ({_co_edges_sql(2)}),
            sym AS (SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e),
            w AS (
                SELECT s1.v AS id_a, s2.v AS id_b,
                       CAST(COUNT(*) AS BIGINT) AS common_neighbors
                FROM sym s1 JOIN sym s2 ON s1.u = s2.u AND s1.v < s2.v
                GROUP BY 1, 2
            )
            SELECT id_a, id_b, common_neighbors FROM w
            WHERE common_neighbors >= 2
              AND NOT EXISTS (SELECT 1 FROM e
                              WHERE e.u = w.id_a AND e.v = w.id_b)
        """,
        # 3 unrolled peel rounds: degree → keep(deg>=2) → edge semi-join,
        # exactly kcore_peel's degree_table + two hash_join rounds
        "kcore": f"""
            WITH e0 AS (SELECT u, v FROM ({_co_edges_sql(2)})),
            d1 AS (SELECT node, COUNT(*) AS deg FROM
                     (SELECT u AS node FROM e0 UNION ALL SELECT v FROM e0)
                   GROUP BY node),
            e1 AS (SELECT u, v FROM e0
                   WHERE u IN (SELECT node FROM d1 WHERE deg >= 2)
                     AND v IN (SELECT node FROM d1 WHERE deg >= 2)),
            d2 AS (SELECT node, COUNT(*) AS deg FROM
                     (SELECT u AS node FROM e1 UNION ALL SELECT v FROM e1)
                   GROUP BY node),
            e2 AS (SELECT u, v FROM e1
                   WHERE u IN (SELECT node FROM d2 WHERE deg >= 2)
                     AND v IN (SELECT node FROM d2 WHERE deg >= 2)),
            d3 AS (SELECT node, COUNT(*) AS deg FROM
                     (SELECT u AS node FROM e2 UNION ALL SELECT v FROM e2)
                   GROUP BY node),
            e3 AS (SELECT u, v FROM e2
                   WHERE u IN (SELECT node FROM d3 WHERE deg >= 2)
                     AND v IN (SELECT node FROM d3 WHERE deg >= 2))
            SELECT CAST(node AS BIGINT) AS node,
                   CAST(COUNT(*) AS BIGINT) AS degree
            FROM (SELECT u AS node FROM e3 UNION ALL SELECT v FROM e3)
            GROUP BY node
        """,
        # keeper = global min doc_id per md5; per-source dup attribution —
        # the Ray plan resolves keepers inside coarse md5-hash buckets
        "domain_dup_rate": """
            WITH h AS (SELECT doc_id, source, md5(text) AS h FROM documents),
            k AS (SELECT h, MIN(doc_id) AS keeper FROM h GROUP BY h)
            SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(CASE WHEN h.doc_id != k.keeper
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_dups
            FROM h JOIN k USING (h) GROUP BY source
        """,
        # vocabulary = phi-frequent words (cnt*41 > N); per-doc OOV ppm via
        # explode + LEFT JOIN (docs with zero tokens keep oov_ppm = 0)
        "word_commonness": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
                FROM documents
            ),
            vocab AS (SELECT w, COUNT(*) AS cnt FROM toks GROUP BY w)
            SELECT t.doc_id,
                   CAST(SUM(v.cnt) AS BIGINT) AS s,
                   CAST(COUNT(*) AS BIGINT) AS n_toks,
                   CAST(SUM(v.cnt) // COUNT(*) AS BIGINT) AS commonness
            FROM toks t JOIN vocab v ON v.w = t.w
            GROUP BY t.doc_id
        """,
        "weighted_sample": f"""
            SELECT doc_id, w, priority,
                   CAST(row_number() OVER (ORDER BY priority, doc_id)
                        AS BIGINT) AS rk
            FROM (
                SELECT doc_id,
                       CAST(length(text) + 1 AS BIGINT) AS w,
                       CAST((('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                                 ::UBIGINT >> 2) AS BIGINT)
                           // (length(text) + 1) AS priority
                FROM documents)
            ORDER BY priority, doc_id LIMIT {_WS_K}
        """,
        "oov_rate": """
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ),
            w AS (SELECT unnest(ws) AS w FROM toks),
            tot AS (SELECT COUNT(*) AS n FROM w),
            v AS (SELECT c.w FROM
                    (SELECT w, COUNT(*) AS cnt FROM w GROUP BY w) c, tot
                  WHERE c.cnt * 41 > tot.n),
            t AS (SELECT doc_id, unnest(ws) AS w FROM toks),
            oovc AS (
                SELECT t.doc_id, COUNT(*) AS n,
                       SUM(CASE WHEN v.w IS NULL THEN 1 ELSE 0 END) AS oov
                FROM t LEFT JOIN v ON t.w = v.w GROUP BY t.doc_id
            )
            SELECT toks.doc_id,
                   CAST(COALESCE(oovc.n, 0) AS BIGINT) AS n_tokens,
                   CAST(CASE WHEN COALESCE(oovc.n, 0) = 0 THEN 0
                             ELSE (oovc.oov * 1000000) // oovc.n
                        END AS BIGINT) AS oov_ppm
            FROM toks LEFT JOIN oovc ON toks.doc_id = oovc.doc_id
        """,
        # heavy_hitters_exact's verified output is batch-independent, so the
        # oracle is the plain global threshold — no plan replication
        "heavy_hitters": """
            WITH w AS (
                SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                       AS word
                FROM documents
            ),
            tot AS (SELECT COUNT(*) AS n FROM w),
            c AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS cnt
                  FROM w GROUP BY word)
            SELECT word, cnt FROM c, tot WHERE cnt * 41 > tot.n
        """,
        # the two snapshots derive deterministically from orders; the exact
        # integer rowhash (cents*4 + status_code) makes 'changed' replicable
        "snapshot_delta": """
            WITH base AS (
                SELECT o_orderkey AS k,
                       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS c,
                       CASE o_orderstatus WHEN 'F' THEN 0
                                          WHEN 'O' THEN 1 ELSE 2 END AS sc
                FROM orders
            ),
            oldv AS (SELECT k, c * 4 + sc AS h FROM base WHERE k % 10 != 3),
            newv AS (SELECT k,
                            (c + CASE WHEN k % 10 = 5 THEN 100 ELSE 0 END)
                                * 4 + sc AS h
                     FROM base WHERE k % 10 != 7)
            SELECT CAST(COALESCE(o.k, n.k) AS BIGINT) AS o_orderkey,
                   CASE WHEN o.k IS NULL THEN 'added'
                        WHEN n.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM oldv o FULL OUTER JOIN newv n ON o.k = n.k
            WHERE o.k IS NULL OR n.k IS NULL OR o.h <> n.h
        """,
        # the stopword-profile language heuristic is an argmax over four
        # occurrence counts — ties prefer the earlier profile (en,de,fr,es),
        # all-zero → 'und', exactly the lang_id() loop semantics
        "langid": """
            SELECT doc_id, CASE
                WHEN s_en = 0 AND s_de = 0 AND s_fr = 0 AND s_es = 0 THEN 'und'
                WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es THEN 'en'
                WHEN s_de >= s_fr AND s_de >= s_es THEN 'de'
                WHEN s_fr >= s_es THEN 'fr'
                ELSE 'es' END AS detected_lang
            FROM (
                SELECT doc_id,
                       len(list_filter(ws, x -> list_contains(
                           ['the','and','of','to','is','was','in','for','that','with'], x))) AS s_en,
                       len(list_filter(ws, x -> list_contains(
                           ['der','die','das','und','ist','von','mit','für','nicht','ein'], x))) AS s_de,
                       len(list_filter(ws, x -> list_contains(
                           ['le','la','les','et','est','des','dans','pour','une','que'], x))) AS s_fr,
                       len(list_filter(ws, x -> list_contains(
                           ['el','la','los','y','es','de','en','por','una','que'], x))) AS s_es
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-zäöüßéèêàçñ]+') AS ws
                      FROM documents)
            )
        """,
        # quality features are plain arithmetic over regex token lists —
        # expressible in SQL with identical IEEE double expressions
        "quality": """
            SELECT doc_id,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CASE WHEN n_tokens > 0 THEN CAST(n_alpha AS DOUBLE) / n_tokens
                        ELSE 0.0 END AS mean_token_len,
                   CASE WHEN n_chars > 0 THEN CAST(n_chars - n_alpha AS DOUBLE) / n_chars
                        ELSE 0.0 END AS punct_ratio,
                   CASE WHEN n_tokens > 0 THEN CAST(n_stop AS DOUBLE) / n_tokens
                        ELSE 0.0 END AS stopword_ratio,
                   (n_tokens >= 20
                    AND (CASE WHEN n_chars > 0
                         THEN CAST(n_chars - n_alpha AS DOUBLE) / n_chars
                         ELSE 0.0 END) <= 0.5
                    AND (CASE WHEN n_tokens > 0
                         THEN CAST(n_stop AS DOUBLE) / n_tokens
                         ELSE 0.0 END) >= 0.01) AS keep
            FROM (
                SELECT doc_id,
                       length(text) AS n_chars,
                       len(toks) AS n_tokens,
                       COALESCE(list_sum(list_transform(toks, x -> length(x))), 0)
                           AS n_alpha,
                       len(list_filter(toks, x -> list_contains(
                           ['the','and','of','to','is','was','in','for','that',
                            'with','a','an','it','on','at','by'], lower(x))))
                           AS n_stop
                FROM (SELECT doc_id, text,
                             regexp_extract_all(text, '[A-Za-z0-9]+') AS toks
                      FROM documents)
            )
        """,
        "revenue_by_brand": """
            SELECT p_brand, COUNT(*) AS n_items,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM lineitem JOIN part ON l_partkey = p_partkey
            GROUP BY p_brand
        """,
        "shipping_priority": """
            SELECT o_orderkey,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM orders JOIN lineitem ON l_orderkey = o_orderkey
            WHERE o_orderdate < TIMESTAMP '1998-01-01'
              AND l_shipdate > TIMESTAMP '1998-01-01'
            GROUP BY o_orderkey
            ORDER BY revenue_cents DESC, o_orderkey LIMIT 10
        """,
        "nations_overlap": """
            SELECT DISTINCT CAST(c_nationkey AS BIGINT) AS k FROM customer
            INTERSECT
            SELECT DISTINCT CAST(s_nationkey AS BIGINT) AS k FROM supplier
        """,
        "customer_only_nations": """
            SELECT DISTINCT CAST(c_nationkey AS BIGINT) AS k FROM customer
            EXCEPT
            SELECT DISTINCT CAST(s_nationkey AS BIGINT) AS k FROM supplier
        """,
        "distinct_users_per_type": """
            SELECT event_type, COUNT(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "events_pivot": """
            SELECT user_id,
                   CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
            FROM events GROUP BY user_id
        """,
        # price > 1.5·avg as exact integers: 2·cents·n > 3·sum
        "orders_above_avg": """
            SELECT o.o_orderpriority, COUNT(*) AS n_above
            FROM (SELECT o_custkey, o_orderpriority,
                         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
                  FROM orders) o
            JOIN (SELECT o_custkey, SUM(cents) AS s, COUNT(*) AS c
                  FROM (SELECT o_custkey,
                               CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
                        FROM orders)
                  GROUP BY o_custkey) a
              ON o.o_custkey = a.o_custkey
            WHERE 2 * o.cents * a.c > 3 * a.s
            GROUP BY o.o_orderpriority
        """,
        # COUNT/COALESCE (not WHERE gap IS NOT NULL + GROUP BY) so
        # single-event users still appear with n_gaps = 0
        "event_gaps": """
            SELECT user_id, CAST(COUNT(gap_us) AS BIGINT) AS n_gaps,
                   CAST(COALESCE(SUM(gap_us), 0) AS BIGINT) AS sum_gap_us
            FROM (SELECT user_id,
                         epoch_us(ts) - lag(epoch_us(ts))
                             OVER (PARTITION BY user_id ORDER BY ts) AS gap_us
                  FROM events)
            GROUP BY user_id
        """,
        # banded MinHash-LSH replicated plan-for-plan in SQL (including the
        # bucket_cap chain fallback, which is why a naive all-pairs Jaccard
        # oracle would NOT match: the capped plan is connectivity-preserving,
        # not pair-complete, by design)
        "minhash_neardup": _lsh_oracle_sql(_WORD3_SHINGLES, 0.8),
        "ngram_jaccard_neardup": _lsh_oracle_sql("ws", 0.9),
        # EXACT set-similarity join: prefix-filter blocking is provably
        # lossless (the order-smallest common shingle lies in both docs'
        # prefixes whenever J >= t), so the oracle needs NO plan
        # replication — it is the plain all-pairs exact Jaccard join with
        # the identical integer threshold (ni*5 >= union*3) and ppm output
        "setsim_neardup": f"""
            WITH toks AS (
                SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ),
            sh AS (
                SELECT DISTINCT doc_id, sh FROM (
                    SELECT doc_id, unnest({_WORD3_SHINGLES}) AS sh FROM toks)
            ),
            sz AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
            inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS ni
                FROM sh a JOIN sh b ON a.sh = b.sh AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT i.id_a, i.id_b,
                   CAST((ni * 1000000) // (za.n + zb.n - ni) AS BIGINT)
                       AS jaccard_ppm
            FROM inter i
            JOIN sz za ON za.doc_id = i.id_a
            JOIN sz zb ON zb.doc_id = i.id_b
            WHERE ni * 5 >= (za.n + zb.n - ni) * 3
        """,
        # paragraph(10-token chunk)-granular exact dedup: keeper = min
        # (doc_id, idx) per distinct chunk content; group by the chunk TEXT
        # (the Ray plan groups its md5 — identical up to md5 collisions)
        "paragraph_dedup": r"""
            WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split_regex(text, '\s+'),
                                   x -> x <> '') AS ws
                FROM documents
            ),
            chunks AS (
                SELECT doc_id, i AS idx,
                       array_to_string(ws[(i*10+1):(i*10+10)], ' ') AS chunk
                FROM toks, unnest(range(0, (len(ws)+9)//10)) AS t(i)
            ),
            keep AS (SELECT chunk, MIN(doc_id*1000000+idx) AS k
                     FROM chunks GROUP BY chunk)
            SELECT c.doc_id, COUNT(*) AS n_chunks,
                   CAST(SUM(CASE WHEN k.k = c.doc_id*1000000+c.idx
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept
            FROM chunks c JOIN keep k ON k.chunk = c.chunk
            GROUP BY c.doc_id
        """,
        # greedy WordPiece replicated with a hash-joined longest-match table
        # + recursive chain-following CTE
        "subword_counts": _wordpiece_oracle_sql(),
        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE md5(CAST(doc_id AS VARCHAR)) <
                  CASE lang WHEN 'en' THEN '2' WHEN 'de' THEN '8' ELSE '4' END
        """,
        # p90 = smallest value whose cumulative count reaches 0.9·n,
        # exact integer comparison (10·cum ≥ 9·n)
        "value_p90": """
            SELECT event_type, CAST(MAX(n) AS BIGINT) AS n,
                   CAST(MIN(value_cents) AS BIGINT) AS p90_cents
            FROM (
                SELECT event_type, value_cents,
                       SUM(cnt) OVER (PARTITION BY event_type
                                      ORDER BY value_cents) AS cum,
                       SUM(cnt) OVER (PARTITION BY event_type) AS n
                FROM (SELECT event_type,
                             CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_cents,
                             COUNT(*) AS cnt
                      FROM events GROUP BY 1, 2)
            )
            WHERE cum * 10 >= n * 9
            GROUP BY event_type
        """,
        # exact anti join (Bloom can't prune antis — false positives would
        # drop survivors): distinct fact keys + partitioned left join
        "customers_without_urgent_orders": """
            SELECT c_custkey, c_name FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_orderpriority = '1-URGENT')
        """,
        # the curation flagship, all four stages composed into ONE statement:
        # quality rule -> md5 window dedup -> banded-LSH + recursive-CC +
        # ROW_NUMBER argmax keeper -> windowed-MAX span coverage rewrite
        "curation_pipeline": f"""
            WITH RECURSIVE
            q0 AS (
                SELECT doc_id, text FROM (
                    SELECT doc_id, text,
                           len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_tokens,
                           length(text) AS n_chars,
                           COALESCE(list_sum(list_transform(
                               regexp_extract_all(text, '[A-Za-z0-9]+'),
                               x -> length(x))), 0) AS n_alpha
                    FROM documents)
                WHERE n_tokens >= 5
                  AND (CASE WHEN n_chars > 0
                       THEN CAST(n_chars - n_alpha AS DOUBLE) / n_chars
                       ELSE 0.0 END) <= 0.5
            ),
            surv1 AS (
                SELECT doc_id, text FROM (
                    SELECT doc_id, text,
                           MIN(doc_id) OVER (PARTITION BY md5(text)) AS k
                    FROM q0)
                WHERE doc_id = k
            ),
            pairs AS ({_lsh_oracle_sql(_WORD3_SHINGLES, 0.8, source="surv1")}),
            docs AS (SELECT CAST(doc_id AS BIGINT) AS id FROM surv1),
            s AS (SELECT CAST(id_a AS BIGINT) AS src, CAST(id_b AS BIGINT) AS dst
                  FROM pairs
                  UNION
                  SELECT CAST(id_b AS BIGINT), CAST(id_a AS BIGINT) FROM pairs),
            reach(node, lbl) AS (
                SELECT DISTINCT src, src FROM s
                UNION
                SELECT s2.dst, r.lbl FROM reach r JOIN s s2 ON s2.src = r.node
            ),
            comp AS (SELECT node, MIN(lbl) AS rep FROM reach GROUP BY node),
            lab AS (
                SELECT d.id AS doc_id, CAST(COALESCE(c.rep, d.id) AS BIGINT) AS comp
                FROM docs d LEFT JOIN comp c ON c.node = d.id),
            tokn AS (
                SELECT CAST(doc_id AS BIGINT) AS doc_id,
                       len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS ntok
                FROM surv1),
            best AS (
                SELECT comp, doc_id AS keep_id FROM (
                    SELECT l.comp, l.doc_id,
                           ROW_NUMBER() OVER (PARTITION BY l.comp
                                              ORDER BY t.ntok DESC, l.doc_id) AS rn
                    FROM lab l JOIN tokn t ON t.doc_id = l.doc_id)
                WHERE rn = 1),
            surv2 AS (
                SELECT s1.doc_id, s1.text
                FROM surv1 s1
                JOIN lab l ON l.doc_id = s1.doc_id
                JOIN best b ON b.comp = l.comp AND b.keep_id = s1.doc_id
            ),
            tok AS (
                SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM surv2),
            pos AS (
                SELECT doc_id, unnest(range(1, len(ws) + 1)) AS p,
                       unnest(ws) AS tk
                FROM tok),
            starts AS (
                SELECT doc_id,
                       unnest(range(1, len(ws) - {_DUPNG_N - 2})) AS p,
                       unnest(list_transform(
                           range(1, len(ws) - {_DUPNG_N - 2}),
                           i -> ('0x' || substr(md5(array_to_string(
                                    ws[i:i+{_DUPNG_N - 1}], ' ')), 1, 16))::UBIGINT))
                           AS h
                FROM tok),
            cnt AS (
                SELECT h FROM (SELECT DISTINCT doc_id, h FROM starts)
                GROUP BY h HAVING COUNT(*) >= 2),
            flag AS (
                SELECT st.doc_id, st.p, 1 AS f
                FROM starts st JOIN cnt c ON c.h = st.h),
            cov AS (
                SELECT t.doc_id, t.p, t.tk,
                       MAX(COALESCE(f.f, 0)) OVER (
                           PARTITION BY t.doc_id ORDER BY t.p
                           ROWS BETWEEN {_DUPNG_N - 1} PRECEDING AND CURRENT ROW)
                           AS covered
                FROM pos t LEFT JOIN flag f ON f.doc_id = t.doc_id AND f.p = t.p)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(covered) AS BIGINT) AS n_removed,
                   COALESCE(string_agg(CASE WHEN covered = 0 THEN tk END,
                                       ' ' ORDER BY p), '') AS kept_text
            FROM cov GROUP BY doc_id
        """,
        # ordered per-group aggregation: string_agg with a total ORDER BY
        "user_event_seq": """
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   string_agg(event_type, '>' ORDER BY ts, event_id) AS seq
            FROM events GROUP BY user_id
        """,
        # per-group top-K with a lossless per-batch combiner
        "top3_events_per_user": f"""
            SELECT user_id, rk, event_id, value_cents FROM (
                SELECT user_id, event_id,
                       CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_cents,
                       ROW_NUMBER() OVER (PARTITION BY user_id
                                          ORDER BY value DESC, event_id) AS rk
                FROM events) WHERE rk <= {_TOPK_PER_GROUP}
        """,
        # running COUNT(DISTINCT): first-day per user, counts, prefix sum
        "cumulative_distinct_users": """
            WITH f AS (SELECT user_id,
                              MIN(CAST(ts AS DATE) - DATE '1970-01-01') AS day
                       FROM events GROUP BY 1),
            d AS (SELECT day, COUNT(*) AS n_new FROM f GROUP BY 1)
            SELECT CAST(day AS BIGINT) AS day,
                   CAST(n_new AS BIGINT) AS n_new,
                   CAST(SUM(n_new) OVER (ORDER BY day) AS BIGINT) AS cum_users
            FROM d
        """,
        # relational division: distinct pairs -> per-key counts == divisor
        "customers_all_priorities": """
            SELECT c.c_custkey, c.c_name
            FROM customer c
            JOIN (SELECT o_custkey
                  FROM (SELECT DISTINCT o_custkey, o_orderpriority FROM orders)
                  GROUP BY o_custkey
                  HAVING COUNT(*) = (SELECT COUNT(DISTINCT o_orderpriority)
                                     FROM orders)) q
              ON q.o_custkey = c.c_custkey
        """,
        # per-group exact p90: same integer cum rule as value_p90, PARTITIONed
        # by the group key (the Ray side finishes distributed, never driver)
        "customer_p90_spend": """
            SELECT CAST(o_custkey AS BIGINT) AS o_custkey,
                   CAST(MAX(n) AS BIGINT) AS n_orders,
                   CAST(MIN(cents) AS BIGINT) AS p90_cents
            FROM (
                SELECT o_custkey, cents,
                       SUM(cnt) OVER (PARTITION BY o_custkey
                                      ORDER BY cents) AS cum,
                       SUM(cnt) OVER (PARTITION BY o_custkey) AS n
                FROM (SELECT o_custkey,
                             CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents,
                             COUNT(*) AS cnt
                      FROM orders GROUP BY 1, 2)
            )
            WHERE cum * 10 >= n * 9
            GROUP BY o_custkey
        """,
        # SymSpell deletion-neighborhood blocking replicated plan-for-plan
        # (bucket_cap=256 chain fallback included), exact levenshtein verify
        "fuzzy_part_names": """
            WITH names AS (SELECT DISTINCT p_name AS name FROM part),
            del_keys AS (
                SELECT name, substr(name, 1, i - 1) || substr(name, i + 1) AS key
                FROM (SELECT name, unnest(range(1, length(name) + 1)) AS i
                      FROM names)
            ),
            kd AS (
                SELECT DISTINCT key, name FROM (
                    SELECT name, name AS key FROM names
                    UNION ALL
                    SELECT name, key FROM del_keys)
            ),
            sized AS (
                SELECT key, name,
                       COUNT(*) OVER (PARTITION BY key) AS n,
                       ROW_NUMBER() OVER (PARTITION BY key ORDER BY name) AS rn
                FROM kd
            ),
            cand AS (
                SELECT DISTINCT name_a, name_b FROM (
                    SELECT a.name AS name_a, b.name AS name_b
                    FROM sized a JOIN sized b
                      ON a.key = b.key AND a.name < b.name
                    WHERE a.n <= 256
                    UNION ALL
                    SELECT a.name, b.name
                    FROM sized a JOIN sized b
                      ON a.key = b.key AND b.rn = a.rn + 1
                    WHERE a.n > 256)
            )
            SELECT name_a, name_b,
                   CAST(levenshtein(name_a, name_b) AS BIGINT) AS dist
            FROM cand WHERE levenshtein(name_a, name_b) <= 1
        """,
        "term_doc_freq": """
            SELECT token, COUNT(*) AS df FROM (
                SELECT DISTINCT doc_id, token FROM (
                    SELECT doc_id,
                           unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
                    FROM documents)
            ) GROUP BY token HAVING COUNT(*) >= 5
        """,
        "seq_packing": f"""
            SELECT doc_id, n_tokens,
                   CAST(cum0 // {SEQ_CAPACITY} AS BIGINT) AS seq_id,
                   CAST(cum0 % {SEQ_CAPACITY} AS BIGINT) AS seq_offset
            FROM (
                SELECT doc_id, n_tokens,
                       COALESCE(SUM(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS cum0
                FROM (SELECT doc_id,
                             CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+'))
                                  AS BIGINT) AS n_tokens
                      FROM documents)
            )
        """,
        "knn_cosine": f"""
            SELECT vec_id, CAST(rank AS BIGINT) AS rank FROM (
                SELECT vec_id,
                       ROW_NUMBER() OVER (
                           ORDER BY list_cosine_similarity(embedding, {_ONES}) DESC, vec_id
                       ) AS rank
                FROM embeddings) WHERE rank <= 10
        """,
        # winnowing fingerprint replicated in SQL: per-window polynomial hash
        # (base 257 mod 2^61-1, window 16 — list_reduce in HUGEINT so the
        # per-step product never overflows), keep hashes ≡ 0 mod 8, XOR them
        # (bit_xor), mask to int63. Docs with no kept window hash to 0 (the
        # LEFT JOIN). The Python <16-byte fallback (blake2) is NOT modeled —
        # testdata min doc length is 47 chars, asserted in tests.
        "fingerprint": """
            SELECT d.doc_id, COALESCE(f.fp, 0) AS fingerprint
            FROM documents d LEFT JOIN (
                SELECT doc_id,
                       bit_xor(h) & 9223372036854775807 AS fp
                FROM (
                    SELECT doc_id,
                           CAST(list_reduce(
                               list_transform(range(i, i + 16),
                                   j -> CAST(ascii(substr(text, j, 1)) AS HUGEINT)),
                               (a, b) -> (a * 257 + b) % 2305843009213693951)
                            AS BIGINT) AS h
                    FROM (SELECT doc_id, text,
                                 unnest(range(1, length(text) - 14)) AS i
                          FROM documents)
                ) WHERE h % 8 = 0
                GROUP BY doc_id
            ) f ON d.doc_id = f.doc_id
        """,
        # full-probe IVF == exact: same oracle as the brute-force scan
        "knn_ivf_full": f"""
            SELECT vec_id, CAST(rank AS BIGINT) AS rank FROM (
                SELECT vec_id,
                       ROW_NUMBER() OVER (
                           ORDER BY list_cosine_similarity(embedding, {_ONES}) DESC, vec_id
                       ) AS rank
                FROM embeddings) WHERE rank <= 10
        """,
        # full 64-bit SimHash replicated in SQL: per-token md5-top-8-byte
        # hash (the Python side uses the same), per-bit majority vote over
        # the token multiset, bit 63 masked off (int63 for Arrow int64);
        # docs with no whitespace tokens hash to 0
        "simhash": r"""
            SELECT d.doc_id,
                   COALESCE(s.simhash, 0) AS simhash
            FROM documents d LEFT JOIN (
                SELECT doc_id,
                       CAST(SUM(CASE WHEN cnt > 0
                                     THEN (CAST(1 AS BIGINT) << b) ELSE 0 END)
                            AS BIGINT) AS simhash
                FROM (
                    SELECT doc_id, b,
                           SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS cnt
                    FROM (
                        SELECT doc_id,
                               ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h
                        FROM (
                            SELECT doc_id,
                                   unnest(list_filter(
                                       string_split_regex(lower(text), '\s+'),
                                       x -> x <> '')) AS tok
                            FROM documents)
                    ) CROSS JOIN (SELECT unnest(range(0, 63)) AS b)
                    GROUP BY doc_id, b
                ) GROUP BY doc_id
            ) s ON d.doc_id = s.doc_id
        """,
        "kmeans_fixed": _kmeans_oracle_sql(k=8, n_iters=3),
        # round-5 integerizations (former rows-only entries, now hash-gated)
        # cluster_homogeneity: the Gini-ppm polynomial over the unrolled
        # integer-kmeans assignment — HUGEINT keeps N² · 10⁶ exact; every
        # term is non-negative so // truncation == floor on both sides
        # (mirrors functions/metrics.py clustering_homogeneity_gini_ppm).
        "cluster_homogeneity": f"""
            WITH asg AS ({_kmeans_oracle_sql(k=8, n_iters=3)}),
            j AS (SELECT a.cluster AS cl, e.label AS lb
                  FROM asg a JOIN embeddings e USING (vec_id)),
            cl_lab AS (SELECT cl, lb, CAST(COUNT(*) AS HUGEINT) AS n
                       FROM j GROUP BY 1, 2),
            cl_sz AS (SELECT cl, SUM(n) AS s, SUM(n * n) AS nn
                      FROM cl_lab GROUP BY 1),
            cond AS (SELECT SUM((1000000 * (s * s - nn)) // s) AS c
                     FROM cl_sz),
            lab AS (SELECT lb, CAST(COUNT(*) AS HUGEINT) AS ln
                    FROM j GROUP BY 1),
            tot AS (SELECT SUM(ln) AS nt, SUM(ln * ln) AS l2 FROM lab)
            SELECT CAST(CASE WHEN nt * nt - l2 = 0 THEN 1000000
                        ELSE 1000000 - (c * nt) // (nt * nt - l2) END
                        AS BIGINT) AS homogeneity_ppm
            FROM cond, tot
        """,
        # mention_confusion: the pipeline's span+type EXACT parity with the
        # planted gold (P/R = 1.0, tests/test_oracle_parity.py) makes the
        # gold self-join the oracle. A MISSED or MIS-TYPED gold mention
        # fails the hash gate (count drift / off-diagonal cell); an EXTRA
        # predicted mention cannot: confusion_topk inner-joins pred to gold
        # on the span keys, so spans absent from gold never reach the counts
        # — precision is gated by test_oracle_parity, not here.
        "mention_confusion": f"""
            SELECT type AS gold_label, type AS pred_label,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM read_parquet('{pdir}/gold_mentions.parquet')
            GROUP BY 1, 2
            ORDER BY n DESC, gold_label, pred_label
            LIMIT 10
        """,
        "user_funnel": """
            WITH f AS (
                SELECT user_id,
                       MIN(CASE WHEN event_type = 'view'
                                THEN epoch_us(ts) END) AS tv,
                       MIN(CASE WHEN event_type = 'click'
                                THEN epoch_us(ts) END) AS tc,
                       MIN(CASE WHEN event_type = 'purchase'
                                THEN epoch_us(ts) END) AS tp
                FROM events GROUP BY user_id)
            SELECT CAST(SUM(CASE WHEN tv IS NOT NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_view,
                   CAST(SUM(CASE WHEN tv < tc THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_view_click,
                   CAST(SUM(CASE WHEN tv < tc AND tc < tp THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_view_click_purchase
            FROM f
        """,
        "table_checksum": f"""
            SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(h % {_CKSUM_P1}) % {_CKSUM_P1} AS BIGINT) AS ck_a,
                   CAST(SUM(h % {_CKSUM_P2}) % {_CKSUM_P2} AS BIGINT) AS ck_b
            FROM (SELECT l_returnflag,
                         ('0x' || substr(md5(
                             CAST(l_orderkey AS VARCHAR) || '|'
                             || CAST(l_linenumber AS VARCHAR) || '|'
                             || CAST(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT)
                                     AS VARCHAR)), 1, 16))::UBIGINT AS h
                  FROM lineitem)
            GROUP BY l_returnflag
        """,
        "per_source_sample": """
            SELECT source, doc_id, CAST(rn AS BIGINT) AS rk FROM (
                SELECT source, doc_id,
                       row_number() OVER (
                           PARTITION BY source
                           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
                FROM documents) WHERE rn <= 5
        """,
        "phrase_search": """
            WITH toks AS (SELECT doc_id,
                                 regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                          FROM documents),
            pos AS (SELECT doc_id, generate_subscripts(ws, 1) AS p,
                           unnest(ws) AS w FROM toks)
            SELECT t0.doc_id, CAST(COUNT(*) AS BIGINT) AS n_matches
            FROM pos t0
            JOIN pos t1 ON t1.doc_id = t0.doc_id AND t1.p = t0.p + 1
            JOIN pos t2 ON t2.doc_id = t0.doc_id AND t2.p = t0.p + 2
            WHERE t0.w = 'stream' AND t1.w = 'table' AND t2.w = 'hash'
            GROUP BY t0.doc_id
        """,
        "orders_cube": """
            SELECT COALESCE(o_orderpriority, 'ALL') AS priority,
                   COALESCE(o_orderstatus, 'ALL') AS status,
                   COUNT(*) AS n_orders,
                   CAST(SUM(cents) AS BIGINT) AS total_cents
            FROM (SELECT o_orderpriority, o_orderstatus,
                         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
                  FROM orders)
            GROUP BY CUBE (o_orderpriority, o_orderstatus)
        """,
        "event_type_transitions": """
            SELECT prev_type, event_type AS next_type,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM (SELECT event_type,
                         lag(event_type) OVER (
                             PARTITION BY user_id ORDER BY ts, event_id
                         ) AS prev_type
                  FROM events)
            WHERE prev_type IS NOT NULL
            GROUP BY 1, 2
        """,
        "top_terms_per_lang": f"""
            WITH tok AS (SELECT lang,
                                unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
                         FROM documents),
            cnt AS (SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n
                    FROM tok GROUP BY 1, 2)
            SELECT lang, token, n, CAST(rk AS BIGINT) AS rk
            FROM (SELECT lang, token, n,
                         ROW_NUMBER() OVER (
                             PARTITION BY lang ORDER BY n DESC, token
                         ) AS rk
                  FROM cnt)
            WHERE rk <= {_TOP_TERMS_K}
        """,
        "source_vocab_jaccard": """
            WITH pairs AS (
                SELECT DISTINCT source,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
                FROM documents),
            counts AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n
                       FROM pairs GROUP BY source),
            inter AS (SELECT a.source AS sa, b.source AS sb,
                             CAST(COUNT(*) AS BIGINT) AS i
                      FROM pairs a
                      JOIN pairs b ON a.token = b.token AND a.source < b.source
                      GROUP BY 1, 2)
            SELECT ca.source AS source_a, cb.source AS source_b,
                   CAST(COALESCE(i.i, 0) AS BIGINT) AS inter_n,
                   CAST(ca.n + cb.n - COALESCE(i.i, 0) AS BIGINT) AS union_n,
                   CAST(COALESCE(i.i, 0) * 1000000
                        // (ca.n + cb.n - COALESCE(i.i, 0)) AS BIGINT) AS jaccard_ppm
            FROM counts ca
            JOIN counts cb ON ca.source < cb.source
            LEFT JOIN inter i ON i.sa = ca.source AND i.sb = cb.source
        """,
        "sliding_distinct_users": """
            SELECT window_id, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM (SELECT unnest([h, h - 1]) AS window_id, user_id
                  FROM (SELECT CAST(FLOOR(epoch(ts) / 3600) AS BIGINT) AS h,
                               user_id
                        FROM events))
            GROUP BY 1
        """,
        "part_cooccurrence": f"""
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
            SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey
                               AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2 HAVING COUNT(*) >= {_COOC_MIN_ORDERS}
        """,
        "graph_lpa": _lpa_sql(3),
        "graph_sssp": _sssp_sql(3),
        "graph_assortativity": f"""
            WITH ed AS (SELECT u, v FROM ({_co_edges_sql(2)})),
            deg AS (SELECT node, COUNT(*) AS d FROM
                      (SELECT u AS node FROM ed UNION ALL SELECT v FROM ed)
                    GROUP BY 1),
            e AS (SELECT u AS src, v AS dst FROM ed
                  UNION ALL SELECT v, u FROM ed),
            j AS (SELECT du.d AS x, dv.d AS y
                  FROM e JOIN deg du ON du.node = e.src
                         JOIN deg dv ON dv.node = e.dst),
            m AS (SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
                         SUM(x * y) AS sxy, SUM(x * x) AS sxx FROM j)
            SELECT CAST(n AS BIGINT) AS n_directed_edges,
                   CAST(n * sxy - sx * sy AS BIGINT) AS assort_num,
                   CAST(n * sxx - sx * sx AS BIGINT) AS assort_den,
                   CAST((1000000 * (n * sxy - sx * sy))
                        // (n * sxx - sx * sx) AS BIGINT) AS assort_ppm
            FROM m
        """,
        "sorted_neighborhood": _snm_sql(),
        "nation_share_of_region": """
            WITH f AS (SELECT c_nationkey,
                              CAST(FLOOR(o_totalprice * 100 + 0.5)
                                   AS BIGINT) AS cents
                       FROM orders JOIN customer ON o_custkey = c_custkey),
            nrev AS (SELECT n_nationkey, n_name, n_regionkey,
                            SUM(cents) AS cents
                     FROM f JOIN nation ON n_nationkey = f.c_nationkey
                     GROUP BY 1, 2, 3),
            rrev AS (SELECT n_regionkey, SUM(cents) AS rc
                     FROM nrev GROUP BY 1)
            SELECT n_name, r_name,
                   CAST(nrev.cents AS BIGINT) AS revenue_cents,
                   CAST((1000000 * nrev.cents) // rrev.rc AS BIGINT)
                       AS share_ppm
            FROM nrev JOIN rrev USING (n_regionkey)
                      JOIN region ON r_regionkey = n_regionkey
        """,
        "priority_month_chi2": """
            WITH cells AS (SELECT o_orderpriority AS p,
                                  strftime(o_orderdate, '%Y-%m') AS m,
                                  COUNT(*) AS n
                           FROM orders GROUP BY 1, 2),
            tot AS (SELECT SUM(n) AS nn FROM cells),
            rm AS (SELECT p, SUM(n) AS r FROM cells GROUP BY 1),
            cm AS (SELECT m, SUM(n) AS c FROM cells GROUP BY 1)
            SELECT CAST(tot.nn AS BIGINT) AS n,
                   CAST(COUNT(*) AS BIGINT) AS n_cells,
                   CAST(SUM((1000000 * (cells.n * tot.nn - rm.r * cm.c)
                                     * (cells.n * tot.nn - rm.r * cm.c))
                            // (rm.r * cm.c * tot.nn)) AS BIGINT) AS chi2_ppm
            FROM cells JOIN rm USING (p) JOIN cm USING (m) CROSS JOIN tot
            GROUP BY tot.nn
        """,
        "spend_kendall_tau": """
            WITH pc AS (SELECT o_custkey AS c, COUNT(*) AS n,
                               SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                                        AS BIGINT)) AS v
                        FROM orders GROUP BY 1),
            r AS (SELECT c,
                         row_number() OVER (ORDER BY n, c) AS rn,
                         row_number() OVER (ORDER BY v, c) AS rv
                  FROM pc),
            d AS (SELECT COUNT(*) AS inv
                  FROM r a JOIN r b ON a.rn < b.rn AND a.rv > b.rv),
            t AS (SELECT COUNT(*) AS n FROM r)
            SELECT CAST(t.n AS BIGINT) AS n,
                   CAST(d.inv AS BIGINT) AS n_discordant,
                   CAST(1000000 - (4000000 * d.inv) // (t.n * (t.n - 1))
                        AS BIGINT) AS tau_ppm
            FROM d, t
        """,
        "orders_zorder": _zorder_oracle_sql(),
        "orders_zonemap": """
            SELECT o_orderkey // 1000 AS tile,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(MIN(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS min_cents,
                   CAST(MAX(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS max_cents,
                   CAST(MIN(CAST(FLOOR(epoch(o_orderdate) / 86400) AS BIGINT))
                        AS BIGINT) AS min_day,
                   CAST(MAX(CAST(FLOOR(epoch(o_orderdate) / 86400) AS BIGINT))
                        AS BIGINT) AS max_day
            FROM orders GROUP BY 1
        """,
        "value_mannwhitney_u": """
            WITH b AS (SELECT event_type,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c
                       FROM events
                       WHERE event_type IN ('purchase', 'view')),
            h AS (SELECT c,
                         CAST(COUNT(*) FILTER (WHERE event_type = 'purchase')
                              AS BIGINT) AS n1,
                         CAST(COUNT(*) FILTER (WHERE event_type = 'view')
                              AS BIGINT) AS n2
                  FROM b GROUP BY c),
            w AS (SELECT n1, n2,
                         COALESCE(SUM(n2) OVER (ORDER BY c
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING), 0) AS n2_less
                  FROM h)
            SELECT CAST(SUM(n1) AS BIGINT) AS n1,
                   CAST(SUM(n2) AS BIGINT) AS n2,
                   CAST(SUM(n1 * (2 * n2_less + n2)) AS BIGINT) AS u2
            FROM w
        """,
        "user_pareto": """
            WITH u AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS cnt
                       FROM events GROUP BY 1),
            t AS (SELECT CAST(SUM(cnt) AS BIGINT) AS tot,
                         CAST(COUNT(*) AS BIGINT) AS nu FROM u),
            r AS (SELECT cnt,
                         SUM(cnt) OVER (ORDER BY cnt DESC, user_id) - cnt
                             AS ps
                  FROM u)
            SELECT t.nu AS n_users, t.tot AS n_events,
                   CAST(COUNT(*) FILTER (WHERE 10 * r.ps < 8 * t.tot)
                        AS BIGINT) AS n_users_80,
                   CAST(1000000 * COUNT(*) FILTER (WHERE 10 * r.ps
                                                         < 8 * t.tot)
                        // t.nu AS BIGINT) AS users_share_ppm
            FROM r CROSS JOIN t GROUP BY t.nu, t.tot
        """,
        "order_cume_dist": """
            SELECT o_orderkey, o_orderpriority, cents,
                   CAST(1000000 * cle // n AS BIGINT) AS cume_ppm
            FROM (SELECT o_orderkey, o_orderpriority, c AS cents,
                         COUNT(*) OVER (PARTITION BY o_orderpriority ORDER BY c
                                        RANGE BETWEEN UNBOUNDED PRECEDING
                                              AND CURRENT ROW) AS cle,
                         COUNT(*) OVER (PARTITION BY o_orderpriority) AS n
                  FROM (SELECT o_orderkey, o_orderpriority,
                               CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                                   AS c
                        FROM orders))
        """,
        "feature_hashing": f"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
              FROM documents),
            h AS (SELECT doc_id,
                         ('0x' || substr(md5(w), 1, 16))::UBIGINT AS h
                  FROM tok),
            c AS (SELECT doc_id, CAST(h % {_FH_DIMS} AS BIGINT) AS dim,
                         CAST((h // {_FH_DIMS}) % 2 AS BIGINT) * 2 - 1 AS sgn
                  FROM h)
            SELECT doc_id, dim, CAST(SUM(sgn) AS BIGINT) AS val
            FROM c GROUP BY 1, 2 HAVING SUM(sgn) <> 0
        """,
        "negative_edges": f"""
            WITH e AS ({_co_edges_sql(2)}),
            nd AS (SELECT DISTINCT node FROM
                     (SELECT u AS node FROM e
                      UNION ALL SELECT v AS node FROM e)),
            r AS (SELECT node, row_number() OVER (ORDER BY node) - 1 AS rr
                  FROM nd),
            t AS (SELECT CAST(COUNT(*) AS UBIGINT) AS n FROM nd),
            c AS (SELECT nd.node AS u0,
                         CAST(('0x' || substr(md5(nd.node || ':' || i.i),
                                              1, 16))::UBIGINT % t.n
                              AS BIGINT) AS rr
                  FROM nd
                  CROSS JOIN (SELECT 0 AS i UNION ALL SELECT 1) i
                  CROSS JOIN t),
            p AS (SELECT DISTINCT LEAST(u0, r.node) AS u,
                                  GREATEST(u0, r.node) AS v
                  FROM c JOIN r USING (rr) WHERE u0 <> r.node)
            SELECT p.u, p.v
            FROM p LEFT JOIN e ON e.u = p.u AND e.v = p.v
            WHERE e.u IS NULL
        """,
        "inverted_index": f"""
            WITH tok AS (
              SELECT doc_id, unnest(l) AS w,
                     generate_subscripts(l, 1) - 1 AS pos
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text), '[a-z0-9]+') AS l
                    FROM documents)),
            f AS (SELECT w, doc_id, MIN(pos) AS pos FROM tok GROUP BY 1, 2),
            r AS (SELECT w, doc_id, pos,
                         row_number() OVER (PARTITION BY w ORDER BY doc_id)
                             AS rn
                  FROM f)
            SELECT w AS token, CAST(COUNT(*) AS BIGINT) AS df,
                   COALESCE(string_agg(
                       CASE WHEN rn <= {_INV_DF_CAP}
                            THEN doc_id || ':' || pos END,
                       ',' ORDER BY doc_id), '') AS postings
            FROM r GROUP BY w
        """,
        "events_anomalies": """
            WITH d AS (SELECT CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS day,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            m AS (SELECT n AS med FROM
                    (SELECT n, row_number() OVER (ORDER BY n) AS rn FROM d)
                  WHERE rn = (SELECT (COUNT(*) + 1) // 2 FROM d)),
            a AS (SELECT ABS(d.n - m.med) AS dev FROM d, m),
            md AS (SELECT dev AS mad FROM
                     (SELECT dev, row_number() OVER (ORDER BY dev) AS rn FROM a)
                   WHERE rn = (SELECT (COUNT(*) + 1) // 2 FROM a))
            SELECT d.day, d.n, CAST(d.n - m.med AS BIGINT) AS deviation
            FROM d, m, md WHERE ABS(d.n - m.med) > 3 * md.mad
        """,
        "value_trimmed_mean": """
            WITH b AS (SELECT event_type,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c,
                              CAST(COUNT(*) AS BIGINT) AS k
                       FROM events GROUP BY 1, 2),
            cm AS (SELECT event_type, c, k,
                          SUM(k) OVER (PARTITION BY event_type
                                       ORDER BY c) AS cum,
                          SUM(k) OVER (PARTITION BY event_type
                                       ORDER BY c) - k AS prev,
                          SUM(k) OVER (PARTITION BY event_type) AS n
                   FROM b),
            inc AS (SELECT event_type, c, n,
                           GREATEST(0, LEAST(cum, n - n // 20)
                                       - GREATEST(prev, n // 20)) AS i
                    FROM cm)
            SELECT event_type,
                   CAST(MAX(n) - 2 * (MAX(n) // 20) AS BIGINT) AS trimmed_n,
                   CAST(SUM(c * i) // (MAX(n) - 2 * (MAX(n) // 20))
                        AS BIGINT) AS tmean_cents
            FROM inc GROUP BY event_type
        """,
        "spend_rank_corr": """
            WITH pc AS (SELECT o_custkey AS c, COUNT(*) AS n,
                               SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                                        AS BIGINT)) AS v
                        FROM orders GROUP BY 1),
            r AS (SELECT c,
                         row_number() OVER (ORDER BY n, c) AS rn,
                         row_number() OVER (ORDER BY v, c) AS rv
                  FROM pc),
            a AS (SELECT COUNT(*) AS n,
                         SUM((rn - rv) * (rn - rv)) AS sd2 FROM r)
            SELECT CAST(n AS BIGINT) AS n, CAST(sd2 AS BIGINT) AS sum_d2,
                   CAST(1000000 - (6000000 * sd2) // (n * (n * n - 1))
                        AS BIGINT) AS rho_ppm
            FROM a
        """,
        "top_session_paths": f"""
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS us,
                              event_type FROM events),
            l AS (SELECT *, LAG(us) OVER (PARTITION BY user_id
                                          ORDER BY us, event_id) AS pus
                  FROM e),
            s AS (SELECT *, SUM(CASE WHEN pus IS NULL
                                       OR us - pus > {_PATH_GAP_US}
                                     THEN 1 ELSE 0 END)
                              OVER (PARTITION BY user_id
                                    ORDER BY us, event_id
                                    ROWS UNBOUNDED PRECEDING) AS sid
                  FROM l),
            p AS (SELECT user_id, sid,
                         string_agg(event_type, '>'
                                    ORDER BY us, event_id) AS path
                  FROM s GROUP BY 1, 2),
            c AS (SELECT path, COUNT(*) AS n FROM p GROUP BY 1)
            SELECT path, CAST(n AS BIGINT) AS n
            FROM c ORDER BY n DESC, path LIMIT {_PATH_TOP_K}
        """,
        "abandoned_views": """
            WITH v AS (SELECT event_id, user_id, epoch_us(ts) AS us
                       FROM events WHERE event_type = 'view'),
            p AS (SELECT user_id, epoch_us(ts) AS us
                  FROM events WHERE event_type = 'purchase')
            SELECT v.event_id, v.user_id,
                   CAST(v.us // 1000000 AS BIGINT) AS s
            FROM v
            WHERE NOT EXISTS (
                SELECT 1 FROM p
                WHERE p.user_id = v.user_id
                  AND p.us >= v.us AND p.us <= v.us + 3600000000)
        """,
        "props_novelty": """
            WITH dt AS (
              SELECT DISTINCT CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS day,
                     unnest(regexp_extract_all(lower(props),
                                               '[a-z0-9]+')) AS token
              FROM events),
            tot AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n_tokens
                    FROM dt GROUP BY 1),
            f AS (SELECT token, MIN(day) AS d0 FROM dt GROUP BY 1),
            nw AS (SELECT d0 AS day, CAST(COUNT(*) AS BIGINT) AS n_new
                   FROM f GROUP BY 1)
            SELECT tot.day, tot.n_tokens,
                   CAST(COALESCE(nw.n_new, 0) AS BIGINT) AS n_new
            FROM tot LEFT JOIN nw USING (day)
        """,
        "balanced_sample": """
            WITH c AS (SELECT event_type, COUNT(*) AS n
                       FROM events GROUP BY 1),
            k AS (SELECT MIN(n) AS k FROM c),
            r AS (SELECT event_id, event_type,
                         row_number() OVER (
                           PARTITION BY event_type
                           ORDER BY md5(CAST(event_id AS VARCHAR)),
                                    event_id) AS rn
                  FROM events)
            SELECT event_id, event_type FROM r, k WHERE rn <= k.k
        """,
        "part_lift": f"""
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
            pr AS (SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
                          COUNT(*) AS n_ab
                   FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey
                                      AND a.l_partkey < b.l_partkey
                   GROUP BY 1, 2 HAVING COUNT(*) >= {_COOC_MIN_ORDERS}),
            it AS (SELECT l_partkey AS pk, COUNT(*) AS ni FROM op GROUP BY 1),
            nn AS (SELECT COUNT(*) AS n FROM orders)
            SELECT pr.part_a, pr.part_b, CAST(pr.n_ab AS BIGINT) AS n_ab,
                   CAST((1000000 * pr.n_ab * nn.n) // (ia.ni * ib.ni)
                        AS BIGINT) AS lift_ppm
            FROM pr JOIN it ia ON ia.pk = pr.part_a
                    JOIN it ib ON ib.pk = pr.part_b
                    CROSS JOIN nn
        """,
        "events_trailing7": """
            WITH d AS (SELECT CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS day,
                              CAST(COUNT(*) AS BIGINT) AS n,
                              CAST(SUM(CAST(FLOOR(value * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS v
                       FROM events GROUP BY 1)
            SELECT day, n, v AS value_cents,
                   CAST(SUM(n) OVER w AS BIGINT) AS n_7d,
                   CAST(SUM(v) OVER w AS BIGINT) AS value_cents_7d
            FROM d
            WINDOW w AS (ORDER BY day RANGE BETWEEN 6 PRECEDING
                         AND CURRENT ROW)
        """,
        "golden_records": """
            SELECT md5(text) AS h,
                   CAST(MIN(doc_id) AS BIGINT) AS rep_id,
                   CAST(COUNT(*) AS BIGINT) AS n_dups,
                   CAST(MAX(n_chars) AS BIGINT) AS max_chars,
                   MIN(lang) AS lang, MIN(source) AS source
            FROM documents GROUP BY 1
        """,
        "part_triples": f"""
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
            SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
                   c.l_partkey AS part_c,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM op a
            JOIN op b ON a.l_orderkey = b.l_orderkey
                     AND a.l_partkey < b.l_partkey
            JOIN op c ON a.l_orderkey = c.l_orderkey
                     AND b.l_partkey < c.l_partkey
            GROUP BY 1, 2, 3 HAVING COUNT(*) >= {_COOC_MIN_ORDERS}
        """,
        "events_debounced": f"""
            WITH e AS (SELECT event_id, user_id, event_type,
                              CAST(FLOOR(epoch(ts)) AS BIGINT) AS s
                       FROM events),
            l AS (SELECT *, LAG(s) OVER (PARTITION BY user_id, event_type
                                         ORDER BY s, event_id) AS ps
                  FROM e)
            SELECT event_id, user_id, event_type, s
            FROM l WHERE ps IS NULL OR s - ps > {_DEBOUNCE_S}
        """,
        "user_time_weighted_value": """
            WITH e AS (SELECT user_id, event_id,
                              CAST(FLOOR(epoch(ts)) AS BIGINT) AS s,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v
                       FROM events),
            l AS (SELECT user_id, v,
                         LEAD(s) OVER (PARTITION BY user_id
                                       ORDER BY s, event_id) - s AS dt
                  FROM e),
            a AS (SELECT user_id, SUM(v * dt) AS wsum, SUM(dt) AS tsum
                  FROM l WHERE dt IS NOT NULL
                  GROUP BY 1 HAVING SUM(dt) > 0)
            SELECT user_id, CAST(wsum AS BIGINT) AS wsum,
                   CAST(tsum AS BIGINT) AS tsum,
                   CAST(wsum // tsum AS BIGINT) AS twav_cents
            FROM a
        """,
        "order_skyline": """
            WITH o AS (SELECT o_orderkey,
                              CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                                  AS price_cents,
                              CAST(FLOOR(epoch(o_orderdate) / 86400) AS BIGINT)
                                  AS day
                       FROM orders)
            SELECT a.o_orderkey, a.price_cents, a.day FROM o a
            WHERE NOT EXISTS (
                SELECT 1 FROM o b
                WHERE b.price_cents >= a.price_cents AND b.day >= a.day
                  AND (b.price_cents > a.price_cents OR b.day > a.day))
        """,
        "integrity_audit": """
            WITH lk AS (SELECT l_orderkey AS k, COUNT(*) AS nl
                        FROM lineitem GROUP BY 1),
            ok AS (SELECT o_orderkey AS k FROM orders)
            SELECT CAST((SELECT COUNT(*) FROM orders) AS BIGINT) AS n_orders,
                   CAST((SELECT COUNT(*) FROM lineitem) AS BIGINT) AS n_lines,
                   CAST(COALESCE((SELECT SUM(nl) FROM lk
                                  LEFT JOIN ok ON ok.k = lk.k
                                  WHERE ok.k IS NULL), 0) AS BIGINT)
                       AS n_orphan_lines,
                   CAST((SELECT COUNT(*) FROM ok
                         LEFT JOIN lk ON lk.k = ok.k
                         WHERE lk.k IS NULL) AS BIGINT) AS n_childless_orders
        """,
        "nation_priority_grid": """
            WITH prios AS (SELECT DISTINCT o_orderpriority AS priority
                           FROM orders),
            grid AS (SELECT n_nationkey, n_name, priority
                     FROM nation CROSS JOIN prios),
            c AS (SELECT c_nationkey AS n_nationkey,
                         o_orderpriority AS priority, COUNT(*) AS n
                  FROM orders JOIN customer ON o_custkey = c_custkey
                  GROUP BY 1, 2)
            SELECT g.n_name, g.priority,
                   CAST(COALESCE(c.n, 0) AS BIGINT) AS n_orders
            FROM grid g LEFT JOIN c USING (n_nationkey, priority)
        """,
        "revenue_mom": """
            WITH m AS (SELECT strftime(o_orderdate, '%Y-%m') AS month,
                              SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                                       AS BIGINT)) AS rev
                       FROM orders GROUP BY 1),
            l AS (SELECT month, rev,
                         LAG(rev) OVER (ORDER BY month) AS prev FROM m)
            SELECT month, CAST(rev AS BIGINT) AS revenue_cents,
                   CAST((10000 * (rev - prev)) // prev AS BIGINT) AS delta_bps
            FROM l WHERE prev IS NOT NULL
        """,
        "embedding_dim_stats": """
            WITH q AS (
              SELECT dim,
                     CAST(floor((CAST(v AS DOUBLE) + 1.0) * 1000000)
                          AS BIGINT) AS x
              FROM (SELECT generate_subscripts(embedding, 1) - 1 AS dim,
                           unnest(embedding) AS v FROM embeddings))
            SELECT CAST(dim AS BIGINT) AS dim,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(x) AS BIGINT) AS sum_q,
                   CAST(SUM(x * x) AS BIGINT) AS sum_qq,
                   CAST(SUM(x) // COUNT(*) AS BIGINT) AS mean_q
            FROM q GROUP BY dim
        """,
        "user_active_seconds": f"""
            WITH iv AS (SELECT user_id,
                               CAST(FLOOR(epoch(ts)) AS BIGINT) AS s
                        FROM events),
            o AS (SELECT user_id, s, s + {_ACTIVE_WINDOW_S} AS e,
                         LAG(s + {_ACTIVE_WINDOW_S}) OVER
                           (PARTITION BY user_id ORDER BY s) AS pe
                  FROM iv),
            g AS (SELECT user_id, s, e,
                         SUM(CASE WHEN pe IS NULL OR s > pe THEN 1 ELSE 0 END)
                           OVER (PARTITION BY user_id ORDER BY s
                                 ROWS UNBOUNDED PRECEDING) AS isl
                  FROM o),
            i AS (SELECT user_id, isl, MAX(e) - MIN(s) AS len
                  FROM g GROUP BY 1, 2)
            SELECT user_id, CAST(SUM(len) AS BIGINT) AS active_s,
                   CAST(COUNT(*) AS BIGINT) AS n_islands
            FROM i GROUP BY 1
        """,
        "readability": """
            WITH c AS (
              SELECT doc_id,
                     len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w,
                     GREATEST(len(regexp_extract_all(lower(text),
                                                     '[.!?]+')), 1) AS s,
                     len(regexp_extract_all(lower(text), '[aeiouy]+')) AS y
              FROM documents)
            SELECT doc_id, CAST(w AS BIGINT) AS n_words,
                   CAST(s AS BIGINT) AS n_sents,
                   CAST(y AS BIGINT) AS n_sylls,
                   CAST(206835 - (1015 * w) // s
                               - (84600 * y) // GREATEST(w, 1)
                        AS BIGINT) AS flesch_milli
            FROM c
        """,
        "events_calendar": """
            SELECT CAST((FLOOR(epoch(ts) / 86400) + 4) % 7 AS BIGINT) AS dow,
                   CAST(FLOOR(epoch(ts) / 3600) % 24 AS BIGINT) AS hour,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events GROUP BY 1, 2
        """,
        "profile_events": """
            SELECT 'event_id' AS col, COUNT(*) AS n_rows,
                   CAST(COUNT(*) - COUNT(event_id) AS BIGINT) AS n_null,
                   CAST(COUNT(DISTINCT event_id) AS BIGINT) AS n_distinct
            FROM events
            UNION ALL
            SELECT 'ts', COUNT(*), COUNT(*) - COUNT(ts),
                   COUNT(DISTINCT ts) FROM events
            UNION ALL
            SELECT 'user_id', COUNT(*), COUNT(*) - COUNT(user_id),
                   COUNT(DISTINCT user_id) FROM events
            UNION ALL
            SELECT 'event_type', COUNT(*), COUNT(*) - COUNT(event_type),
                   COUNT(DISTINCT event_type) FROM events
            UNION ALL
            SELECT 'value', COUNT(*), COUNT(*) - COUNT(value),
                   COUNT(DISTINCT CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
            FROM events
            UNION ALL
            SELECT 'props', COUNT(*), COUNT(*) - COUNT(props),
                   COUNT(DISTINCT props) FROM events
        """,
        "user_streaks": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS day
                       FROM events),
            g AS (SELECT user_id, day,
                         day - row_number() OVER (PARTITION BY user_id
                                                  ORDER BY day) AS grp
                  FROM d),
            s AS (SELECT user_id, grp, COUNT(*) AS len FROM g GROUP BY 1, 2)
            SELECT user_id, CAST(SUM(len) AS BIGINT) AS n_days,
                   CAST(MAX(len) AS BIGINT) AS max_streak
            FROM s GROUP BY user_id
        """,
        "value_minmax": """
            WITH c AS (SELECT event_id, event_type,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c
                       FROM events),
            mm AS (SELECT event_type, MIN(c) AS lo,
                          GREATEST(MAX(c) - MIN(c), 1) AS span
                   FROM c GROUP BY 1)
            SELECT c.event_id, c.event_type,
                   CAST((1000000 * (c.c - mm.lo)) // mm.span AS BIGINT)
                       AS scaled_ppm
            FROM c JOIN mm USING (event_type)
        """,
        "lineitem_unpivot": """
            SELECT l_orderkey, l_linenumber, measure,
                   CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS value_cents
            FROM (
              SELECT l_orderkey, l_linenumber, 'l_quantity' AS measure,
                     l_quantity AS v FROM lineitem
              UNION ALL
              SELECT l_orderkey, l_linenumber, 'l_extendedprice',
                     l_extendedprice FROM lineitem
              UNION ALL
              SELECT l_orderkey, l_linenumber, 'l_discount', l_discount
              FROM lineitem
              UNION ALL
              SELECT l_orderkey, l_linenumber, 'l_tax', l_tax FROM lineitem)
        """,
        "value_mode": """
            WITH b AS (SELECT event_type,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c,
                              CAST(COUNT(*) AS BIGINT) AS k
                       FROM events GROUP BY 1, 2)
            SELECT event_type, mode_cents, n_mode FROM (
              SELECT event_type, c AS mode_cents, k AS n_mode,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY k DESC, c) AS rn
              FROM b) WHERE rn = 1
        """,
        "value_mad": """
            WITH b AS (SELECT event_type,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c,
                              CAST(COUNT(*) AS BIGINT) AS k
                       FROM events GROUP BY 1, 2),
            cm AS (SELECT event_type, c, k,
                          SUM(k) OVER (PARTITION BY event_type ORDER BY c) AS cum,
                          SUM(k) OVER (PARTITION BY event_type) AS n
                   FROM b),
            m AS (SELECT event_type, CAST(MAX(n) AS BIGINT) AS n,
                         CAST(MIN(CASE WHEN 2 * cum >= n THEN c END) AS BIGINT) AS med
                  FROM cm GROUP BY 1),
            d AS (SELECT b.event_type, ABS(b.c - m.med) AS dv, b.k, m.n, m.med
                  FROM b JOIN m USING (event_type)),
            dc AS (SELECT event_type, dv, k, n, med,
                          SUM(k) OVER (PARTITION BY event_type ORDER BY dv) AS cum
                   FROM d)
            SELECT event_type, CAST(MAX(n) AS BIGINT) AS n,
                   CAST(MAX(med) AS BIGINT) AS median_cents,
                   CAST(MIN(CASE WHEN 2 * cum >= n THEN dv END) AS BIGINT) AS mad_cents
            FROM dc GROUP BY event_type
        """,
        "order_deciles": f"""
            SELECT o_orderkey,
                   CAST(NTILE({_NTILE_K}) OVER
                        (ORDER BY o_totalprice, o_orderkey) AS BIGINT) AS decile
            FROM orders
        """,
        "value_trend": """
            WITH p AS (SELECT event_type,
                              CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS x,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS y
                       FROM events)
            SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST((1000000 * (COUNT(*) * SUM(x * y) - SUM(x) * SUM(y)))
                        // (COUNT(*) * SUM(x * x) - SUM(x) * SUM(x))
                        AS BIGINT) AS slope_ucpd
            FROM p GROUP BY 1
        """,
        "user_type_gini": """
            WITH c AS (SELECT user_id, event_type, COUNT(*) AS n
                       FROM events GROUP BY 1, 2)
            SELECT user_id,
                   CAST(SUM(n) AS BIGINT) AS n_events,
                   CAST(COUNT(*) AS BIGINT) AS n_types,
                   CAST((1000000 * (SUM(n) * SUM(n) - SUM(n * n)))
                        // (SUM(n) * SUM(n)) AS BIGINT) AS gini_ppm
            FROM c GROUP BY 1
        """,
        "value_outliers": """
            WITH b AS (SELECT event_type,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c,
                              CAST(COUNT(*) AS BIGINT) AS k
                       FROM events GROUP BY 1, 2),
            cm AS (SELECT event_type, c, k,
                          SUM(k) OVER (PARTITION BY event_type ORDER BY c) AS cum,
                          SUM(k) OVER (PARTITION BY event_type) AS n
                   FROM b),
            q AS (SELECT event_type, CAST(MAX(n) AS BIGINT) AS n,
                         CAST(MIN(CASE WHEN 4 * cum >= n THEN c END) AS BIGINT) AS q1,
                         CAST(MIN(CASE WHEN 4 * cum >= 3 * n THEN c END) AS BIGINT) AS q3
                  FROM cm GROUP BY event_type)
            SELECT q.event_type, q.n,
                   q.q1 AS q1_cents, q.q3 AS q3_cents,
                   CAST(COALESCE(SUM(CASE WHEN 2 * b.c < 2 * q.q1 - 3 * (q.q3 - q.q1)
                                            OR 2 * b.c > 2 * q.q3 + 3 * (q.q3 - q.q1)
                                          THEN b.k END), 0) AS BIGINT) AS n_outliers
            FROM q JOIN b ON b.event_type = q.event_type
            GROUP BY 1, 2, 3, 4
        """,
        "meta_blocking": f"""
            WITH tok AS (
                SELECT DISTINCT p_partkey AS id,
                       unnest(regexp_extract_all(lower(p_name), '[a-z0-9]+')) AS t
                FROM part),
            ok AS (SELECT t FROM tok GROUP BY t
                   HAVING COUNT(*) BETWEEN 2 AND {_MB_MAX_BLOCK}),
            pairs AS (SELECT a.id AS id_a, b.id AS id_b, COUNT(*) AS w
                      FROM tok a
                      JOIN ok ON ok.t = a.t
                      JOIN tok b ON b.t = a.t AND a.id < b.id
                      GROUP BY 1, 2)
            SELECT id_a, id_b, CAST(w AS BIGINT) AS w
            FROM pairs WHERE w >= 2
        """,
        "doc_chunks": f"""
            WITH arr AS (SELECT doc_id,
                                regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                         FROM documents),
            tok AS (SELECT doc_id,
                           generate_subscripts(ws, 1) - 1 AS i,
                           unnest(ws) AS w
                    FROM arr)
            SELECT doc_id, CAST(i // {_CHUNK_K} AS BIGINT) AS chunk_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   string_agg(w, ' ' ORDER BY i) AS chunk_text
            FROM tok GROUP BY 1, 2
        """,
        "nations_except_all": """
            SELECT k, CAST(COUNT(*) AS BIGINT) AS n
            FROM (SELECT c_nationkey AS k FROM customer
                  EXCEPT ALL
                  SELECT s_nationkey AS k FROM supplier)
            GROUP BY 1
        """,
        "key_skew_stats": """
            WITH c AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n
                       FROM events GROUP BY 1)
            SELECT CAST(length(bin(n)) - 1 AS BIGINT) AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_keys,
                   CAST(SUM(n) AS BIGINT) AS n_rows
            FROM c GROUP BY 1
        """,
        "user_retention": """
            WITH ud AS (SELECT DISTINCT user_id,
                               CAST(FLOOR(epoch(ts) / 86400) AS BIGINT) AS day
                        FROM events),
            fd AS (SELECT user_id, MIN(day) AS day0 FROM ud GROUP BY 1)
            SELECT fd.day0 AS cohort_day,
                   ud.day - fd.day0 AS day_delta,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM ud JOIN fd ON ud.user_id = fd.user_id
            GROUP BY 1, 2
        """,
        "value_hist_quantiles": f"""
            WITH b AS (SELECT event_type,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT)
                                  // {_HQ_BIN_CENTS} AS bin,
                              COUNT(*) AS n
                       FROM events GROUP BY 1, 2),
            c AS (SELECT event_type, bin, n,
                         SUM(n) OVER (PARTITION BY event_type
                                      ORDER BY bin) AS cum,
                         SUM(n) OVER (PARTITION BY event_type) AS tot
                  FROM b)
            SELECT event_type, CAST(MAX(tot) AS BIGINT) AS n,
                   CAST(MIN(CASE WHEN cum * 100 >= 50 * tot THEN bin END)
                        * {_HQ_BIN_CENTS} AS BIGINT) AS p50_lo_cents,
                   CAST(MIN(CASE WHEN cum * 100 >= 90 * tot THEN bin END)
                        * {_HQ_BIN_CENTS} AS BIGINT) AS p90_lo_cents,
                   CAST(MIN(CASE WHEN cum * 100 >= 99 * tot THEN bin END)
                        * {_HQ_BIN_CENTS} AS BIGINT) AS p99_lo_cents
            FROM c GROUP BY event_type
        """,
        "late_order_priority": """
            SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate <  TIMESTAMP '1996-04-01'
              AND o_orderkey IN (SELECT l_orderkey FROM lineitem
                                 WHERE l_returnflag = 'R')
            GROUP BY 1
        """,
        "top_return_customers": """
            WITH r AS (
                SELECT o_custkey,
                       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                                           * 100 + 0.5) AS BIGINT)) AS BIGINT)
                           AS revenue_cents
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                WHERE l_returnflag = 'R'
                  AND o_orderdate >= TIMESTAMP '1996-01-01'
                  AND o_orderdate <  TIMESTAMP '1996-07-01'
                GROUP BY 1
                ORDER BY revenue_cents DESC, o_custkey LIMIT 20)
            SELECT c_custkey, c_name, n_name, revenue_cents
            FROM r JOIN customer ON o_custkey = c_custkey
                   JOIN nation ON c_nationkey = n_nationkey
        """,
        "part_revenue_share": """
            WITH p AS (SELECT l_partkey AS p_partkey,
                              CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS rev_cents
                       FROM lineitem GROUP BY 1),
                 t AS (SELECT CAST(SUM(rev_cents) AS BIGINT) AS total FROM p)
            SELECT p_partkey, rev_cents,
                   CAST(rev_cents * 1000000 // t.total AS BIGINT) AS share_ppm
            FROM p, t WHERE rev_cents * 10000 > t.total
        """,
        "supplier_diversity": """
            SELECT p_brand, p_size,
                   CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS n_suppliers
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                    WHERE s_acctbal < 0)
            GROUP BY 1, 2
        """,
        "churned_high_value": """
            WITH c AS (SELECT c_custkey, c_nationkey,
                              CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS bal
                       FROM customer),
                 s AS (SELECT CAST(SUM(bal) AS BIGINT) AS tot,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM c WHERE bal > 0),
                 recent AS (SELECT DISTINCT o_custkey FROM orders
                            WHERE o_orderdate >= TIMESTAMP '2000-08-01')
            SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(bal) AS BIGINT) AS total_bal_cents
            FROM c, s
            WHERE c.bal * s.n > s.tot
              AND c_custkey NOT IN (SELECT o_custkey FROM recent)
            GROUP BY 1
        """,
        "orders_benford": """
            WITH d AS (SELECT CAST(substr(CAST(CAST(FLOOR(o_totalprice * 100
                                + 0.5) AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT)
                           AS digit
                       FROM orders),
                 c AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS n_orders
                       FROM d GROUP BY 1)
            SELECT digit, n_orders,
                   CAST(n_orders * 1000000
                        // (SELECT SUM(n_orders) FROM c) AS BIGINT) AS share_ppm
            FROM c
        """,
        "nations_intersect_all": """
            SELECT k, CAST(COUNT(*) AS BIGINT) AS n
            FROM (SELECT c_nationkey AS k FROM customer
                  INTERSECT ALL
                  SELECT s_nationkey AS k FROM supplier)
            GROUP BY 1
        """,
        "waiting_suppliers": """
            WITH pair AS (SELECT l_orderkey, l_suppkey,
                                 MAX(l_shipdate) AS ship
                          FROM lineitem GROUP BY 1, 2),
                 j AS (SELECT l_orderkey, l_suppkey,
                              CASE WHEN ship > o_orderdate + INTERVAL 90 DAY
                                   THEN 1 ELSE 0 END AS late
                       FROM pair JOIN orders ON l_orderkey = o_orderkey),
                 per AS (SELECT l_orderkey, COUNT(*) AS n_supp,
                                SUM(late) AS n_late,
                                MAX(CASE WHEN late = 1 THEN l_suppkey END)
                                    AS sole
                         FROM j GROUP BY 1)
            SELECT sole AS l_suppkey, CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM per WHERE n_supp >= 2 AND n_late = 1
            GROUP BY 1
        """,
        "nation_pair_volume": """
            SELECT c_nationkey AS cust_nation, s_nationkey AS supp_nation,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                                       * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS rev_cents
            FROM lineitem
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN orders   ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
            GROUP BY 1, 2
        """,
        "top_supplier": """
            WITH r AS (SELECT l_suppkey,
                              CAST(SUM(CAST(FLOOR(l_extendedprice
                                                  * (1 - l_discount) * 100
                                                  + 0.5) AS BIGINT))
                                   AS BIGINT) AS revenue_cents
                       FROM lineitem
                       WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                         AND l_shipdate <  TIMESTAMP '1996-04-01'
                       GROUP BY 1)
            SELECT l_suppkey, revenue_cents
            FROM r WHERE revenue_cents = (SELECT MAX(revenue_cents) FROM r)
        """,
        "big_orders": """
            WITH q AS (SELECT l_orderkey,
                              CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                                  AS total_qty
                       FROM lineitem GROUP BY 1
                       HAVING SUM(CAST(l_quantity AS BIGINT)) > 250)
            SELECT o_orderkey, o_custkey, total_qty,
                   CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS price_cents
            FROM q JOIN orders ON l_orderkey = o_orderkey
        """,
        "brand_bracket_revenue": """
            SELECT CAST(COALESCE(SUM(CAST(FLOOR(l_extendedprice
                                                * (1 - l_discount) * 100
                                                + 0.5) AS BIGINT)), 0)
                        AS BIGINT) AS revenue_cents
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#11' AND p_size BETWEEN 1 AND 15
                   AND l_quantity BETWEEN 1 AND 15)
               OR (p_brand = 'Brand#22' AND p_size BETWEEN 1 AND 25
                   AND l_quantity BETWEEN 10 AND 25)
               OR (p_brand = 'Brand#33' AND p_size BETWEEN 1 AND 35
                   AND l_quantity BETWEEN 20 AND 35)
        """,
        # per-node triangles: the e1/e2/e3 triple join emits each triangle
        # {a<b<c} once; crediting all three corners matches the engine's
        # apex+decoded-endpoint credits exactly
        "graph_clustering": f"""
            WITH e AS ({_co_edges_sql(2)}),
            d AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS degree FROM
                  (SELECT u AS node FROM e UNION ALL SELECT v AS node FROM e)
                  GROUP BY node),
            tris AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
                     FROM e e1
                     JOIN e e2 ON e2.u = e1.v
                     JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v),
            pt AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS tri FROM
                   (SELECT a AS node FROM tris
                    UNION ALL SELECT b FROM tris
                    UNION ALL SELECT c FROM tris) GROUP BY node)
            SELECT d.node, d.degree,
                   CAST(COALESCE(pt.tri, 0) AS BIGINT) AS n_tri,
                   CAST(CASE WHEN d.degree >= 2
                             THEN COALESCE(pt.tri, 0) * 1000000
                                  // (d.degree * (d.degree - 1) // 2)
                             ELSE 0 END AS BIGINT) AS cc_ppm
            FROM d LEFT JOIN pt ON pt.node = d.node
        """,
        "segment_spend_skewed": """
            SELECT c_mktsegment, event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events JOIN customer ON user_id = c_custkey
            GROUP BY 1, 2
        """,
        "weighted_median": """
            WITH h AS (SELECT l_returnflag,
                              CAST(FLOOR(l_extendedprice * 100 + 0.5)
                                   AS BIGINT) AS v,
                              CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                                  AS w
                       FROM lineitem GROUP BY 1, 2),
                 c AS (SELECT l_returnflag, v,
                              SUM(w) OVER (PARTITION BY l_returnflag
                                           ORDER BY v) AS cum,
                              SUM(w) OVER (PARTITION BY l_returnflag) AS tot
                       FROM h)
            SELECT l_returnflag,
                   CAST(MIN(CASE WHEN 2 * cum >= tot THEN v END) AS BIGINT)
                       AS wmedian_cents
            FROM c GROUP BY 1
        """,
        # deterministic walks: ROW_NUMBER()-1 over neighbors ASC replicates
        # the engine's per-node rank; the hop hash is mul/add/mod only
        "graph_walks": f"""
            WITH e AS ({_co_edges_sql(2)}),
            s AS (SELECT u AS node, v AS nbr FROM e
                  UNION ALL SELECT v, u FROM e),
            adj AS (SELECT node, nbr,
                           ROW_NUMBER() OVER (PARTITION BY node
                                              ORDER BY nbr) - 1 AS r,
                           COUNT(*) OVER (PARTITION BY node) AS deg
                    FROM s),
            w0 AS (SELECT DISTINCT node AS start, node AS cur FROM s),
            w1 AS (SELECT w0.start, a.nbr AS cur
                   FROM w0 JOIN adj a ON a.node = w0.cur
                   AND a.r = (w0.start * {_WALK_A} + w0.cur * {_WALK_B}
                              + 1 * {_WALK_C}) % {_WALK_P} % a.deg),
            w2 AS (SELECT w1.start, a.nbr AS cur
                   FROM w1 JOIN adj a ON a.node = w1.cur
                   AND a.r = (w1.start * {_WALK_A} + w1.cur * {_WALK_B}
                              + 2 * {_WALK_C}) % {_WALK_P} % a.deg),
            w3 AS (SELECT w2.start, a.nbr AS cur
                   FROM w2 JOIN adj a ON a.node = w2.cur
                   AND a.r = (w2.start * {_WALK_A} + w2.cur * {_WALK_B}
                              + 3 * {_WALK_C}) % {_WALK_P} % a.deg)
            SELECT start, CAST(0 AS BIGINT) AS step, cur AS node FROM w0
            UNION ALL SELECT start, 1, cur FROM w1
            UNION ALL SELECT start, 2, cur FROM w2
            UNION ALL SELECT start, 3, cur FROM w3
        """,
        # exact isqrt: FLOOR(SQRT(·)) corrected ±1 against integer squares,
        # immune to float rounding at perfect-square boundaries
        "temperature_mix": f"""
            WITH n AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n
                       FROM documents GROUP BY 1),
            s0 AS (SELECT source, n,
                          CAST(FLOOR(SQRT(CAST(n AS DOUBLE))) AS BIGINT) AS s
                   FROM n),
            w AS (SELECT source,
                         s - CASE WHEN s * s > n THEN 1 ELSE 0 END
                           + CASE WHEN (s - CASE WHEN s * s > n THEN 1
                                                 ELSE 0 END + 1)
                                       * (s - CASE WHEN s * s > n THEN 1
                                               ELSE 0 END + 1) <= n
                                  THEN 1 ELSE 0 END AS w
                  FROM s0),
            q AS (SELECT source, w * {_MIX_TARGET}
                             // (SELECT SUM(w) FROM w) AS q FROM w),
            r AS (SELECT doc_id, source,
                         ROW_NUMBER() OVER (PARTITION BY source
                                            ORDER BY md5(CAST(doc_id
                                                              AS VARCHAR)),
                                                     doc_id) AS rn
                  FROM documents)
            SELECT r.doc_id, r.source
            FROM r JOIN q ON r.source = q.source WHERE rn <= q.q
        """,
        # integer-scaled dots: products ≤ 64·(2e5)² < 2^53, so DuckDB's
        # float-accumulating list_dot_product is exact here. x must be cast
        # to DOUBLE first — the lambda otherwise multiplies FLOAT32·INT in
        # FLOAT32, which rounds across floor boundaries (0.0283f·10⁴ → 283.0)
        "mutual_knn": f"""
            WITH s AS (SELECT vec_id,
                              list_transform(embedding,
                                  x -> CAST(FLOOR(CAST(x AS DOUBLE)
                                                  * {_MKNN_SCALE})
                                            AS BIGINT)) AS e
                       FROM embeddings),
            d AS (SELECT a.vec_id AS src, b.vec_id AS dst,
                         CAST(list_dot_product(a.e, b.e) AS BIGINT) AS dot
                  FROM s a JOIN s b ON a.vec_id <> b.vec_id),
            r AS (SELECT src, dst, dot,
                         ROW_NUMBER() OVER (PARTITION BY src
                                            ORDER BY dot DESC, dst) AS rn
                  FROM d),
            k AS (SELECT src, dst, dot FROM r WHERE rn <= {_MKNN_K})
            SELECT LEAST(src, dst) AS a, GREATEST(src, dst) AS b,
                   CAST(MAX(dot) AS BIGINT) AS dot
            FROM k GROUP BY 1, 2 HAVING COUNT(*) = 2
        """,
        "discount_revenue": """
            SELECT CAST(COALESCE(SUM(CAST(FLOOR(l_extendedprice * l_discount
                                                * 100 + 0.5) AS BIGINT)), 0)
                        AS BIGINT) AS revenue_cents
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
              AND l_discount BETWEEN 0.05 AND 0.07
              AND l_quantity < 24
        """,
        "brand_market_share": """
            WITH m AS (SELECT strftime(l_shipdate, '%Y-%m') AS month,
                              CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT)
                                  AS total_cents,
                              CAST(SUM(CASE WHEN p_brand = 'Brand#11'
                                            THEN CAST(FLOOR(l_extendedprice
                                                            * 100 + 0.5)
                                                      AS BIGINT)
                                            ELSE 0 END) AS BIGINT)
                                  AS brand_cents
                       FROM lineitem JOIN part ON l_partkey = p_partkey
                       GROUP BY 1)
            SELECT month, brand_cents,
                   CAST(brand_cents * 1000000
                        // GREATEST(total_cents, 1) AS BIGINT) AS share_ppm
            FROM m
        """,
        # independent formulation (window rank, not the engine's packed
        # argmin) — a stronger oracle than replicating the packing
        "cheapest_supplier": """
            WITH r AS (SELECT l_partkey AS p_partkey,
                              l_suppkey AS s_suppkey,
                              CAST(FLOOR(l_extendedprice * 100 + 0.5)
                                   AS BIGINT) AS price,
                              ROW_NUMBER() OVER (
                                  PARTITION BY l_partkey
                                  ORDER BY CAST(FLOOR(l_extendedprice * 100
                                                      + 0.5) AS BIGINT),
                                           l_suppkey) AS rn
                       FROM lineitem)
            SELECT p_partkey, r.s_suppkey, s_name, price AS min_price_cents
            FROM r JOIN supplier ON r.s_suppkey = supplier.s_suppkey
            WHERE rn = 1
        """,
        "events_cusum": """
            WITH RECURSIVE
            d AS (SELECT datediff('day', TIMESTAMP '1970-01-01', ts) AS day,
                         CAST(COUNT(*) AS BIGINT) AS n
                  FROM events GROUP BY 1),
            r AS (SELECT day, n, ROW_NUMBER() OVER (ORDER BY day) AS rn
                  FROM d),
            mu AS (SELECT SUM(n) // COUNT(*) AS mu FROM d),
            c(rn, day, n, s) AS (
                SELECT rn, day, n, GREATEST(0, n - (SELECT mu FROM mu))
                FROM r WHERE rn = 1
                UNION ALL
                SELECT r.rn, r.day, r.n,
                       GREATEST(0, c.s + r.n - (SELECT mu FROM mu))
                FROM c JOIN r ON r.rn = c.rn + 1)
            SELECT CAST(day AS BIGINT) AS day, n, CAST(s AS BIGINT) AS cusum
            FROM c
        """,
        # (k−1)·2⁶³ needs HUGEINT; the 63-bit hash is the same first-16-hex
        # md5 as the HLL oracle, shifted right one bit
        "kmv_users": f"""
            WITH h AS (SELECT DISTINCT event_type,
                              CAST(('0x' || substr(md5(CAST(user_id
                                                            AS VARCHAR)),
                                                   1, 16))::UBIGINT >> 1
                                   AS BIGINT) AS h
                       FROM events),
            r AS (SELECT event_type, h,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                                            ORDER BY h) AS rn
                  FROM h),
            k AS (SELECT event_type,
                         CAST(COUNT(*) AS BIGINT) AS n_hashes,
                         CAST(MAX(h) AS BIGINT) AS kth_hash
                  FROM r WHERE rn <= {_KMV_K} GROUP BY 1)
            SELECT event_type, n_hashes, kth_hash,
                   CASE WHEN n_hashes >= {_KMV_K}
                        THEN CAST(({_KMV_K - 1}
                                   * CAST(9223372036854775808 AS HUGEINT))
                                  // kth_hash AS BIGINT)
                        ELSE n_hashes END AS est_distinct
            FROM k
        """,
        "rfm_segments": """
            WITH p AS (SELECT user_id,
                              MAX(datediff('day', TIMESTAMP '1970-01-01', ts))
                                  AS last_day,
                              CAST(COUNT(*) AS BIGINT) AS freq,
                              CAST(SUM(CAST(FLOOR(value * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS cents
                       FROM events WHERE event_type = 'purchase' GROUP BY 1),
            r AS (SELECT user_id,
                         ROW_NUMBER() OVER (ORDER BY last_day, user_id) AS rr,
                         ROW_NUMBER() OVER (ORDER BY freq, user_id) AS rf,
                         ROW_NUMBER() OVER (ORDER BY cents, user_id) AS rm
                  FROM p),
            n AS (SELECT COUNT(*) AS n FROM p)
            SELECT user_id,
                   1 + (rr - 1) * 5 // n.n AS r,
                   1 + (rf - 1) * 5 // n.n AS f,
                   1 + (rm - 1) * 5 // n.n AS m,
                   100 * (1 + (rr - 1) * 5 // n.n)
                   + 10 * (1 + (rf - 1) * 5 // n.n)
                   + (1 + (rm - 1) * 5 // n.n) AS rfm
            FROM r, n
        """,
        "nation_profit": """
            SELECT CAST(s.s_nationkey AS BIGINT) AS supp_nation,
                   CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1 - l.l_discount)
                                       * 100 + 0.5) AS BIGINT)
                            - CAST(l.l_quantity AS BIGINT)
                              * (CAST(FLOOR(p.p_retailprice * 100 + 0.5)
                                      AS BIGINT) // 2)) AS BIGINT)
                       AS profit_cents
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            WHERE p.p_name LIKE '%red%'
            GROUP BY 1, 2
        """,
        "returnflag_priority": """
            SELECT l.l_returnflag,
                   CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT',
                                                            '2-HIGH')
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS high_line_count,
                   CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT',
                                                            '2-HIGH')
                                 THEN 0 ELSE 1 END) AS BIGINT)
                       AS low_line_count
            FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
            WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
              AND l.l_shipdate < TIMESTAMP '1997-01-01'
            GROUP BY 1
        """,
        "promo_revenue": """
            WITH s AS (
              SELECT
                CAST(SUM(CASE WHEN p.p_type = 'PROMO'
                              THEN CAST(FLOOR(l.l_extendedprice
                                              * (1 - l.l_discount) * 100
                                              + 0.5) AS BIGINT)
                              ELSE 0 END) AS BIGINT) AS promo_cents,
                CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1 - l.l_discount)
                                    * 100 + 0.5) AS BIGINT)) AS BIGINT)
                    AS total_cents
              FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
              WHERE l.l_shipdate >= TIMESTAMP '1996-03-01'
                AND l.l_shipdate < TIMESTAMP '1996-04-01')
            SELECT promo_cents, total_cents,
                   promo_cents * 1000000 // GREATEST(total_cents, 1)
                       AS promo_ppm
            FROM s
        """,
        "excess_suppliers": f"""
            SELECT CAST(s.s_suppkey AS BIGINT) AS s_suppkey, s.s_name,
                   q.total_qty
            FROM (SELECT l.l_suppkey,
                         CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT)
                             AS total_qty
                  FROM lineitem l
                  JOIN part p ON p.p_partkey = l.l_partkey
                  WHERE p.p_name LIKE '%widget%'
                    AND l.l_shipdate >= TIMESTAMP '1996-01-01'
                    AND l.l_shipdate < TIMESTAMP '1997-01-01'
                  GROUP BY 1
                  HAVING SUM(CAST(l.l_quantity AS BIGINT))
                         > {_EXCESS_QTY_MIN}) q
            JOIN supplier s ON s.s_suppkey = q.l_suppkey
        """,
        "small_qty_revenue": """
            WITH a AS (SELECT l_partkey,
                              CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                                  AS qty_sum,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM lineitem GROUP BY 1)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
                   CAST(COALESCE(SUM(CAST(FLOOR(l.l_extendedprice * 100 + 0.5)
                                          AS BIGINT)), 0) AS BIGINT)
                       AS revenue_cents
            FROM lineitem l JOIN a ON a.l_partkey = l.l_partkey
            WHERE 2 * CAST(l.l_quantity AS BIGINT) * a.n < a.qty_sum
        """,
        "bpe_pair_counts": """
            WITH w AS (
              SELECT word, CAST(COUNT(*) AS BIGINT) AS n
              FROM (SELECT unnest(regexp_extract_all(lower(text),
                                                     '[a-z0-9]+')) AS word
                    FROM documents)
              GROUP BY 1),
            pos AS (SELECT word, n,
                           unnest(range(1, LENGTH(word) + 1)) AS i
                    FROM w),
            pairs AS (SELECT substr(word, i, 1) AS "left",
                             CASE WHEN i < LENGTH(word)
                                  THEN substr(word, i + 1, 1)
                                  ELSE '</w>' END AS "right",
                             n
                      FROM pos)
            SELECT "left", "right",
                   CAST(SUM(n) AS BIGINT) AS pair_count
            FROM pairs GROUP BY 1, 2
            ORDER BY pair_count DESC, "left", "right" LIMIT 20
        """,
        "hdr_quantiles": """
            WITH v AS (SELECT CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c
                       FROM events WHERE value IS NOT NULL),
            b AS (SELECT CASE WHEN c < 32 THEN c
                              ELSE (16 + ((c >> (LENGTH(BIN(c)) - 5)) & 15))
                                   << (LENGTH(BIN(c)) - 5) END AS bucket
                  FROM v),
            g AS (SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n
                  FROM b GROUP BY 1),
            c1 AS (SELECT bucket, SUM(n) OVER (ORDER BY bucket) AS cum
                   FROM g),
            t AS (SELECT CAST(SUM(n) AS BIGINT) AS tot FROM g),
            q AS (SELECT * FROM (VALUES (50), (90), (99)) AS qq(q_pct))
            SELECT CAST(q.q_pct AS BIGINT) AS q_pct,
                   CAST(MIN(c1.bucket) AS BIGINT) AS est_cents,
                   t.tot AS n_rows
            FROM q, t, c1
            WHERE 100 * c1.cum >= q.q_pct * t.tot
            GROUP BY 1, 3
        """,
        "hdr_quantiles_by_type": """
            WITH v AS (SELECT event_type,
                              CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c
                       FROM events WHERE value IS NOT NULL),
            b AS (SELECT event_type,
                         CASE WHEN c < 32 THEN c
                              ELSE (16 + ((c >> (LENGTH(BIN(c)) - 5)) & 15))
                                   << (LENGTH(BIN(c)) - 5) END AS bucket
                  FROM v),
            g AS (SELECT event_type, bucket, CAST(COUNT(*) AS BIGINT) AS n
                  FROM b GROUP BY 1, 2),
            c1 AS (SELECT event_type, bucket,
                          SUM(n) OVER (PARTITION BY event_type
                                       ORDER BY bucket) AS cum
                   FROM g),
            t AS (SELECT event_type, CAST(SUM(n) AS BIGINT) AS tot
                  FROM g GROUP BY 1),
            q AS (SELECT * FROM (VALUES (50), (90), (99)) AS qq(q_pct))
            SELECT c1.event_type,
                   CAST(q.q_pct AS BIGINT) AS q_pct,
                   CAST(MIN(c1.bucket) AS BIGINT) AS est_cents,
                   t.tot AS n_rows
            FROM q, t, c1
            WHERE c1.event_type = t.event_type
              AND 100 * c1.cum >= q.q_pct * t.tot
            GROUP BY 1, 2, 4
        """,
        "order_count_distribution": """
            WITH per_cust AS (
                SELECT c.c_custkey,
                       CAST(COUNT(o.o_orderkey) AS BIGINT) AS n_orders
                FROM customer c
                LEFT JOIN orders o ON o.o_custkey = c.c_custkey
                GROUP BY c.c_custkey)
            SELECT n_orders, CAST(COUNT(*) AS BIGINT) AS n_customers
            FROM per_cust GROUP BY 1
        """,
        "dsir_importance": f"""
            WITH tok AS (
              SELECT doc_id, lang,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                         AS w
              FROM documents),
            hs AS (SELECT doc_id, lang,
                          CAST(('0x' || substr(md5(w), 1, 16))::UBIGINT
                               % {_DSIR_BUCKETS} AS BIGINT) AS h
                   FROM tok),
            cnt AS (SELECT h,
                           CAST(COUNT(*) AS BIGINT) AS n_raw,
                           CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                                AS BIGINT) AS n_tgt
                    FROM hs GROUP BY 1),
            wt AS (SELECT h,
                          CAST((n_tgt + 1) * 1000000 // (n_raw + 1)
                               AS BIGINT) AS w_ppm
                   FROM cnt)
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(w_ppm) AS BIGINT) AS importance_sum
            FROM hs JOIN wt USING (h) GROUP BY 1
        """,
        "graph_neighbor_degree": f"""
            WITH e AS ({_co_edges_sql(1)}),
            s AS (SELECT u AS node, v AS nbr FROM e
                  UNION ALL SELECT v AS node, u AS nbr FROM e),
            d AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS degree
                  FROM s GROUP BY node)
            SELECT s.node, d2.degree,
                   CAST(SUM(dn.degree) AS BIGINT) AS nbr_degree_sum,
                   CAST(SUM(dn.degree) * 1000000 // d2.degree AS BIGINT)
                       AS mean_nbr_deg_ppm
            FROM s
            JOIN d dn ON dn.node = s.nbr
            JOIN d d2 ON d2.node = s.node
            GROUP BY s.node, d2.degree
        """,
        "coverage_select": """
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                         AS w
              FROM documents),
            d AS (SELECT DISTINCT doc_id, w FROM tok),
            c1 AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n
                   FROM d GROUP BY 1),
            w1 AS (SELECT doc_id, n FROM c1 ORDER BY n DESC, doc_id LIMIT 1),
            cov1 AS (SELECT DISTINCT w FROM d
                     WHERE doc_id IN (SELECT doc_id FROM w1)),
            c2 AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM d
                   WHERE w NOT IN (SELECT w FROM cov1)
                     AND doc_id NOT IN (SELECT doc_id FROM w1)
                   GROUP BY 1),
            w2 AS (SELECT doc_id, n FROM c2 ORDER BY n DESC, doc_id LIMIT 1),
            cov2 AS (SELECT w FROM cov1
                     UNION SELECT w FROM d
                     WHERE doc_id IN (SELECT doc_id FROM w2)),
            c3 AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM d
                   WHERE w NOT IN (SELECT w FROM cov2)
                     AND doc_id NOT IN (SELECT doc_id FROM w1
                                        UNION ALL SELECT doc_id FROM w2)
                   GROUP BY 1),
            w3 AS (SELECT doc_id, n FROM c3 ORDER BY n DESC, doc_id LIMIT 1)
            SELECT CAST(1 AS BIGINT) AS round, doc_id, n AS new_tokens FROM w1
            UNION ALL SELECT CAST(2 AS BIGINT), doc_id, n FROM w2
            UNION ALL SELECT CAST(3 AS BIGINT), doc_id, n FROM w3
        """,
        "peak_concurrency": """
            WITH mk AS (
              SELECT user_id, ts,
                     CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER (
                              PARTITION BY user_id ORDER BY ts)
                            > 3600000000
                          THEN 1 ELSE 0 END AS is_new
              FROM events),
            sess AS (SELECT user_id, ts,
                            SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS sid
                     FROM mk),
            iv AS (SELECT user_id, sid,
                          MIN(epoch_us(ts)) AS s, MAX(epoch_us(ts)) AS e
                   FROM sess GROUP BY 1, 2),
            d AS (SELECT s AS t, 1 AS delta FROM iv
                  UNION ALL SELECT e + 1, -1 FROM iv),
            agg AS (SELECT t, SUM(delta) AS delta FROM d GROUP BY t),
            run AS (SELECT SUM(delta) OVER (ORDER BY t
                        ROWS UNBOUNDED PRECEDING) AS conc
                    FROM agg)
            SELECT CAST((SELECT COUNT(*) FROM iv) AS BIGINT) AS n_sessions,
                   CAST(MAX(conc) AS BIGINT) AS peak_concurrency
            FROM run
        """,
        "daily_ohlc": """
            WITH base AS (
              SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                     epoch_us(ts) AS us, event_id,
                     CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
              FROM events),
            r AS (SELECT *,
                    ROW_NUMBER() OVER (PARTITION BY event_type, day
                        ORDER BY us, event_id) AS rno,
                    ROW_NUMBER() OVER (PARTITION BY event_type, day
                        ORDER BY us DESC, event_id DESC) AS rnc
                  FROM base)
            SELECT event_type, day,
                   CAST(MAX(CASE WHEN rno = 1 THEN cents END) AS BIGINT)
                       AS open_cents,
                   CAST(MAX(cents) AS BIGINT) AS high_cents,
                   CAST(MIN(cents) AS BIGINT) AS low_cents,
                   CAST(MAX(CASE WHEN rnc = 1 THEN cents END) AS BIGINT)
                       AS close_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM r GROUP BY 1, 2
        """,
        "late_events": """
            WITH o AS (
              SELECT event_type, epoch_us(ts) AS us,
                     MAX(epoch_us(ts)) OVER (ORDER BY event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS wm
              FROM events)
            SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CASE WHEN wm IS NOT NULL
                                  AND us < wm - 3600000000
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_late
            FROM o GROUP BY 1
        """,
        "daily_locf": """
            WITH base AS (
              SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                     epoch_us(ts) AS us, event_id,
                     CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
              FROM events),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY event_type, day
                      ORDER BY us DESC, event_id DESC) AS rn
                  FROM base),
            daily AS (SELECT event_type, day, cents FROM r WHERE rn = 1),
            span AS (SELECT event_type, MIN(day) AS d0, MAX(day) AS d1
                     FROM daily GROUP BY 1),
            grid AS (SELECT event_type,
                            unnest(generate_series(d0, d1)) AS day
                     FROM span),
            j AS (SELECT g.event_type, g.day, d.cents
                  FROM grid g LEFT JOIN daily d
                    ON d.event_type = g.event_type AND d.day = g.day)
            SELECT event_type, day,
                   CAST(LAST_VALUE(cents IGNORE NULLS) OVER (
                        PARTITION BY event_type ORDER BY day
                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS value_cents,
                   CAST(CASE WHEN cents IS NULL THEN 1 ELSE 0 END AS BIGINT)
                       AS filled
            FROM j
        """,
        "price_qty_hist2d": """
            SELECT CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) // 1000
                       AS price_bucket,
                   CAST(l_quantity AS BIGINT) AS qty,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM lineitem GROUP BY 1, 2
        """,
        "event_type_comovement": """
            WITH daily AS (
              SELECT epoch_us(ts) // 86400000000 AS day, event_type,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2),
            nd AS (SELECT CAST(COUNT(DISTINCT day) AS BIGINT) AS n
                   FROM daily),
            sx AS (SELECT event_type, CAST(SUM(n) AS BIGINT) AS s
                   FROM daily GROUP BY 1),
            pairs AS (SELECT a.event_type AS ta, b.event_type AS tb
                      FROM sx a JOIN sx b ON a.event_type < b.event_type),
            sxy AS (SELECT a.event_type AS ta, b.event_type AS tb,
                           CAST(SUM(a.n * b.n) AS BIGINT) AS s
                    FROM daily a JOIN daily b
                      ON a.day = b.day AND a.event_type < b.event_type
                    GROUP BY 1, 2)
            SELECT p.ta AS type_a, p.tb AS type_b,
                   (SELECT n FROM nd) AS n_days,
                   CAST((SELECT n FROM nd) * COALESCE(sxy.s, 0) - x.s * y.s
                        AS BIGINT) AS cov_num
            FROM pairs p
            LEFT JOIN sxy ON sxy.ta = p.ta AND sxy.tb = p.tb
            JOIN sx x ON x.event_type = p.ta
            JOIN sx y ON y.event_type = p.tb
        """,
        "rendezvous_shards": """
            WITH sh AS (SELECT range AS shard FROM range(9)),
            h AS (SELECT doc_id, shard,
                         md5(CAST(doc_id AS VARCHAR) || ':'
                             || CAST(shard AS VARCHAR)) AS hv
                  FROM documents, sh),
            o AS (SELECT doc_id, shard AS old_shard FROM h WHERE shard < 8
                  QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                                             ORDER BY hv DESC, shard) = 1),
            n AS (SELECT doc_id, shard AS new_shard FROM h
                  QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                                             ORDER BY hv DESC, shard) = 1)
            SELECT old_shard, new_shard, COUNT(*) AS n_docs
            FROM o JOIN n USING (doc_id)
            GROUP BY 1, 2
        """,
        "redirect_resolve": """
            -- closed form for the chain d -> d/2 (even) -> ... -> odd:
            -- the terminal strips all factors of two (lowest-set-bit trick)
            SELECT doc_id,
                   CASE WHEN doc_id = 0 THEN 0
                        ELSE doc_id // (doc_id & -doc_id) END AS target_id,
                   CASE WHEN doc_id = 0 THEN 0
                        ELSE bit_count((doc_id & -doc_id) - 1) END AS n_hops
            FROM documents
        """,
        "url_canonical_dedup": """
            WITH u AS (
              SELECT doc_id, doc_id // 3 AS a, (doc_id // 3) % 7 AS s,
                     doc_id % 3 AS v
              FROM documents),
            raw AS (
              SELECT doc_id,
                CASE v
                  WHEN 0 THEN 'https://www.s' || s || '.example.org/a/' || a
                  WHEN 1 THEN 'HTTPS://WWW.S' || s || '.EXAMPLE.ORG/a/' || a || '/'
                  ELSE 'https://www.s' || s || '.example.org/a/' || a
                       || '?utm_source=feed&ref=tw#frag'
                END AS url
              FROM u),
            rest AS (
              SELECT doc_id,
                     lower(regexp_extract(url, '^[^/]+//[^/?#]+')) AS auth,
                     regexp_replace(
                         substr(url, length(regexp_extract(url, '^[^/]+//[^/?#]+')) + 1),
                         '[?#].*$', '') AS p
              FROM raw),
            canon AS (
              -- mirrors canonical_url exactly: ALL trailing slashes
              -- stripped on non-root paths, all-slash paths collapse to '/'
              SELECT doc_id,
                     auth || CASE WHEN length(p) > 1 AND p LIKE '%/'
                                  THEN COALESCE(NULLIF(
                                           regexp_replace(p, '/+$', ''), ''), '/')
                                  ELSE p END AS canonical_url
              FROM rest)
            SELECT canonical_url, COUNT(*) AS n_variants,
                   MIN(doc_id) AS keep_doc_id
            FROM canon GROUP BY 1
        """,
        "merge_upsert": """
            WITH base AS (
              SELECT CAST(o_orderkey AS BIGINT) AS k,
                     CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
              FROM orders),
            u AS (
              SELECT k, cents, 0 AS version, 0 AS is_del FROM base
              UNION ALL
              SELECT k,
                     CASE WHEN k % 11 = 0 THEN 0 ELSE cents + 100 END,
                     1,
                     CASE WHEN k % 11 = 0 THEN 1 ELSE 0 END
              FROM base WHERE k % 11 = 0 OR k % 7 = 0),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY k
                      ORDER BY version DESC) AS rn
                  FROM u)
            SELECT k AS o_orderkey, CAST(cents AS BIGINT) AS cents,
                   CAST(version AS BIGINT) AS version
            FROM r WHERE rn = 1 AND is_del = 0
        """,
        "bucketed_join_revenue": """
            SELECT o.o_orderpriority,
                   CAST(SUM(CAST(FLOOR(l.l_extendedprice
                                       * (1 - l.l_discount) * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
            GROUP BY 1
        """,
        "spend_gini": """
            WITH s AS (SELECT o_custkey,
                              CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS cents
                       FROM orders GROUP BY 1),
            r AS (SELECT cents,
                         ROW_NUMBER() OVER (ORDER BY cents, o_custkey) AS i,
                         (SELECT COUNT(*) FROM s) AS n,
                         (SELECT SUM(cents) FROM s) AS tot
                  FROM s)
            SELECT CAST(MAX(n) AS BIGINT) AS n_users,
                   CAST(MAX(tot) AS BIGINT) AS total_cents,
                   CAST(SUM((2 * i - n - 1) * cents) * 1000000
                        // (MAX(n) * MAX(tot)) AS BIGINT) AS gini_ppm
            FROM r
        """,
        "pii_redact": f"""
            WITH t AS ({_PII_TEXT_SQL})
            SELECT c_custkey,
                   regexp_replace(regexp_replace(regexp_replace(text,
                       '{EMAIL_RE}', '[EMAIL]', 'g'),
                       '{PHONE_RE}', '[PHONE]', 'g'),
                       '{IPV4_RE}', '[IP]', 'g') AS redacted,
                   CAST(len(regexp_extract_all(text, '{EMAIL_RE}'))
                        AS BIGINT) AS n_email,
                   CAST(len(regexp_extract_all(text, '{PHONE_RE}'))
                        AS BIGINT) AS n_phone,
                   CAST(len(regexp_extract_all(text, '{IPV4_RE}'))
                        AS BIGINT) AS n_ipv4
            FROM t
        """,
        "pii_stats": f"""
            WITH t AS ({_PII_TEXT_SQL}),
            c AS (SELECT
                    len(regexp_extract_all(text, '{EMAIL_RE}')) AS e,
                    len(regexp_extract_all(text, '{PHONE_RE}')) AS p,
                    len(regexp_extract_all(text, '{IPV4_RE}')) AS i
                  FROM t)
            SELECT 'email' AS pii_type,
                   CAST(COUNT(*) FILTER (e > 0) AS BIGINT) AS n_docs,
                   CAST(COALESCE(SUM(e), 0) AS BIGINT) AS n_hits FROM c
            UNION ALL
            SELECT 'phone',
                   CAST(COUNT(*) FILTER (p > 0) AS BIGINT),
                   CAST(COALESCE(SUM(p), 0) AS BIGINT) FROM c
            UNION ALL
            SELECT 'ipv4',
                   CAST(COUNT(*) FILTER (i > 0) AS BIGINT),
                   CAST(COALESCE(SUM(i), 0) AS BIGINT) FROM c
        """,
        "quality_classifier": f"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                         AS w
              FROM documents),
            wt AS (SELECT doc_id,
                          CAST(('0x' || substr(md5(w), 1, 16))::UBIGINT
                               % {_QC_BUCKETS} AS BIGINT) - 1000 AS wt
                   FROM tok)
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(wt) AS BIGINT) AS score_sum,
                   CAST(CASE WHEN SUM(wt) >= 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS keep
            FROM wt GROUP BY 1
        """,
        "record_highs": """
            WITH o AS (
              SELECT event_id,
                     CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_cents,
                     MAX(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER (
                         ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS mx
              FROM events)
            SELECT event_id, value_cents
            FROM o WHERE mx IS NULL OR value_cents > mx
        """,
        "lm_score": f"""
            WITH tok AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9]+') AS l
              FROM documents),
            t2 AS (SELECT doc_id, unnest(l) AS w,
                          generate_subscripts(l, 1) AS pos
                   FROM tok),
            bg AS (SELECT a.doc_id, a.w AS w1, b.w AS w2
                   FROM t2 a JOIN t2 b
                     ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
            cnt AS (SELECT w1, w2, COUNT(*) AS n FROM bg GROUP BY 1, 2),
            pre AS (SELECT w1, SUM(n) AS d FROM cnt GROUP BY 1),
            model AS (SELECT c.w1, c.w2, c.n, p.d
                      FROM cnt c JOIN pre p USING (w1)
                      WHERE c.n >= {_LM_MIN_N})
            SELECT g.doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_bigrams,
                   CAST(COUNT(m.w1) AS BIGINT) AS n_hits,
                   CAST(COALESCE(SUM(m.n * 1000000 // m.d), 0)
                        AS BIGINT) AS score_ppm
            FROM bg g LEFT JOIN model m
              ON g.w1 = m.w1 AND g.w2 = m.w2
            GROUP BY 1
        """,
        "bm25_search": f"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                         AS w
              FROM documents),
            dl AS (SELECT d.doc_id,
                          COALESCE(t.c, 0) AS dl
                   FROM (SELECT DISTINCT doc_id FROM documents) d
                   LEFT JOIN (SELECT doc_id, COUNT(*) AS c
                              FROM tok GROUP BY 1) t USING (doc_id)),
            tot AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
                           CAST(COALESCE(SUM(dl), 0) AS HUGEINT) AS totlen
                    FROM dl),
            q AS (SELECT * FROM (VALUES {", ".join(
                f"('{w}')" for w in _BM25_TERMS)}) t(w)),
            tf AS (SELECT doc_id, w, CAST(COUNT(*) AS HUGEINT) AS tf
                   FROM tok WHERE w IN (SELECT w FROM q) GROUP BY 1, 2),
            df AS (SELECT w, CAST(COUNT(*) AS HUGEINT) AS df
                   FROM tf GROUP BY 1),
            sc AS (SELECT tf.doc_id,
                          SUM((1000000 * (2 * t.n - 2 * df.df + 1)
                               // (2 * df.df + 1))
                              * (22 * tf.tf * t.totlen)
                              // (10 * tf.tf * t.totlen + 3 * t.totlen
                                  + 9 * dl.dl * t.n)) AS score
                   FROM tf
                   JOIN df USING (w)
                   JOIN dl ON dl.doc_id = tf.doc_id
                   CROSS JOIN tot t
                   GROUP BY 1)
            SELECT doc_id, CAST(score AS BIGINT) AS score_ppm
            FROM sc
            ORDER BY score DESC, doc_id
            LIMIT {_BM25_K}
        """,
        "curriculum_pack": f"""
            SELECT doc_id, n_tokens,
                   CAST(cum0 // {SEQ_CAPACITY} AS BIGINT) AS seq_id,
                   CAST(cum0 % {SEQ_CAPACITY} AS BIGINT) AS seq_offset
            FROM (
                SELECT doc_id, n_tokens,
                       COALESCE(SUM(n_tokens) OVER (
                           ORDER BY n_tokens, doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS cum0
                FROM (SELECT doc_id,
                             CAST(len(regexp_extract_all(lower(text),
                                                         '[a-z0-9]+'))
                                  AS BIGINT) AS n_tokens
                      FROM documents)
            )
        """,
        "graph_harmonic": f"""
            WITH e AS ({_co_edges_sql(2)}),
            sym AS (SELECT u, v FROM e UNION ALL SELECT v, u FROM e),
            nd AS (SELECT DISTINCT u AS node FROM sym),
            seed AS (SELECT node AS s FROM nd ORDER BY node LIMIT 4),
            d0 AS (SELECT s AS node, s AS sid, 0 AS hops FROM seed),
            d1 AS (SELECT node, sid, MIN(hops) AS hops FROM (
                     SELECT node, sid, hops FROM d0
                     UNION ALL SELECT sym.v, d0.sid, d0.hops + 1
                     FROM sym JOIN d0 ON sym.u = d0.node)
                   GROUP BY 1, 2),
            d2 AS (SELECT node, sid, MIN(hops) AS hops FROM (
                     SELECT node, sid, hops FROM d1
                     UNION ALL SELECT sym.v, d1.sid, d1.hops + 1
                     FROM sym JOIN d1 ON sym.u = d1.node)
                   GROUP BY 1, 2),
            d3 AS (SELECT node, sid, MIN(hops) AS hops FROM (
                     SELECT node, sid, hops FROM d2
                     UNION ALL SELECT sym.v, d2.sid, d2.hops + 1
                     FROM sym JOIN d2 ON sym.u = d2.node)
                   GROUP BY 1, 2)
            SELECT CAST(node AS BIGINT) AS node,
                   CAST(COUNT(*) AS BIGINT) AS n_sources,
                   CAST(SUM(1000000 // hops) AS BIGINT) AS harmonic_ppm
            FROM d3 WHERE hops > 0 GROUP BY 1
        """,
        # ---- round-4 TPC-H shapes ----------------------------------------
        "brand_supplier_cnt": """
            SELECT p_brand, COUNT(DISTINCT l_suppkey) AS supplier_cnt
            FROM lineitem JOIN part ON l_partkey = p_partkey
            GROUP BY 1
        """,
        "disjunctive_revenue": """
            SELECT CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                                       * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_cents,
                   COUNT(*) AS n_items
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#13' AND l_quantity <= 10)
               OR (p_size >= 30 AND l_quantity > 10 AND l_quantity <= 25)
               OR (p_type LIKE 'STANDARD%' AND l_quantity > 25)
        """,
        "neardup_cluster_hist": f"""
            WITH RECURSIVE pairs AS ({_lsh_oracle_sql(_WORD3_SHINGLES, 0.8)}),
            docs AS (SELECT CAST(doc_id AS BIGINT) AS id FROM documents),
            s AS (SELECT CAST(id_a AS BIGINT) AS src, CAST(id_b AS BIGINT) AS dst
                  FROM pairs
                  UNION
                  SELECT CAST(id_b AS BIGINT), CAST(id_a AS BIGINT) FROM pairs),
            reach(node, lbl) AS (
                SELECT DISTINCT src, src FROM s
                UNION
                SELECT s2.dst, r.lbl FROM reach r JOIN s s2 ON s2.src = r.node
            ),
            comp AS (SELECT node, MIN(lbl) AS rep FROM reach GROUP BY node),
            lab AS (
                SELECT d.id AS doc_id, CAST(COALESCE(c.rep, d.id) AS BIGINT) AS comp
                FROM docs d LEFT JOIN comp c ON c.node = d.id),
            sizes AS (SELECT comp, COUNT(*) AS cluster_size FROM lab GROUP BY comp)
            SELECT cluster_size, COUNT(*) AS n_clusters
            FROM sizes GROUP BY cluster_size
        """,
        "session_duration_quantiles": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
            flags AS (
                SELECT user_id, us,
                       CASE WHEN us - LAG(us) OVER (
                                PARTITION BY user_id ORDER BY us)
                                > 3600000000
                              OR LAG(us) OVER (
                                PARTITION BY user_id ORDER BY us) IS NULL
                            THEN 1 ELSE 0 END AS new_sess
                FROM e),
            sess AS (
                SELECT user_id, us,
                       SUM(new_sess) OVER (
                           PARTITION BY user_id ORDER BY us
                           ROWS UNBOUNDED PRECEDING) AS sid
                FROM flags),
            durs AS (
                SELECT CAST((MAX(us) - MIN(us)) // 1000000 AS BIGINT) AS c
                FROM sess GROUP BY user_id, sid),
            b AS (SELECT CASE WHEN c < 32 THEN c
                              ELSE (16 + ((c >> (LENGTH(BIN(c)) - 5)) & 15))
                                   << (LENGTH(BIN(c)) - 5) END AS bucket
                  FROM durs),
            g AS (SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n
                  FROM b GROUP BY 1),
            c1 AS (SELECT bucket, SUM(n) OVER (ORDER BY bucket) AS cum
                   FROM g),
            t AS (SELECT CAST(SUM(n) AS BIGINT) AS tot FROM g),
            q AS (SELECT * FROM (VALUES (50), (90), (99)) AS qq(q_pct))
            SELECT CAST(q.q_pct AS BIGINT) AS q_pct,
                   CAST(MIN(c1.bucket) AS BIGINT) AS est_s,
                   t.tot AS n_rows
            FROM q, t, c1
            WHERE 100 * c1.cum >= q.q_pct * t.tot
            GROUP BY 1, 3
        """,
        "idle_customers_by_segment": """
            WITH cents_t AS (
                SELECT c_custkey, c_mktsegment,
                       CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS cents
                FROM customer),
            avgpos AS (
                SELECT CAST(SUM(cents) AS BIGINT) AS s, COUNT(*) AS n
                FROM cents_t WHERE cents > 0)
            SELECT c_mktsegment, COUNT(*) AS n_customers,
                   CAST(SUM(cents) AS BIGINT) AS acctbal_cents
            FROM cents_t CROSS JOIN avgpos
            WHERE cents * n > s
              AND c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_orderdate >= DATE '2001-01-01')
            GROUP BY 1
        """,
    }
