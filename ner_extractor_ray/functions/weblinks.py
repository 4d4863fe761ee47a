"""Hyperlink extraction + host-level link-graph construction.

The webtext sibling of the text-extraction front end (functions/textfns.py
``extract_text``): where that keeps the ``<p>`` prose the NER core consumes,
this keeps the ``<a href>`` structure a crawl-scale pipeline consumes — the
host link graph (ranking / crawl prioritization), and anchor-text
aggregation per target (the classic weak-label source for retrieval).
The reference repo parses files into records single-process
(DistilBERT-CRF/src/datasets.py:47-72); here the parse is a per-row pure
function applied inside ``map_batches`` over zero-copy Arrow page batches.

Determinism: regex-driven, no tag-soup heuristics — the same html bytes
always produce the same (href, anchor) list, asserted against an independent
``html.parser.HTMLParser`` reference in tests/test_weblinks.py.

Scale notes (100 TB crawl):
- link extraction is embarrassingly row-parallel; the emitted link table is
  (src_host, dst_host, anchor) — NEVER the html payload — so the shuffle
  that follows ships a few dozen bytes per link, not the page.
- the host graph is built with per-batch partial counting (value_counts on
  the pair key) before ONE bucketed ``grouped_aggregate`` exchange, so
  traffic is ∝ distinct (src_host, dst_host) pairs per batch, not ∝ links.
- hot targets (nav/hub pages attract most inlinks) only ever appear as
  pre-aggregated (pair, partial_count) rows, so head-host skew does not
  concentrate raw link rows on one reducer.
"""

from __future__ import annotations

import html as _htmllib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import stable_hash64

# href first attribute-parsed, then the anchor's inner markup. DOTALL: anchors
# may wrap elements / newlines. Double-quoted, single-quoted AND unquoted
# attribute values accepted (unquoted is legal HTML and common in the wild).
# Known divergences from a tree parser (asserted against html.parser on the
# synthetic corpus's markup shapes in tests/test_weblinks.py; real-HTML
# consumers should know the limit):
#   - nested <a> inside <a> yields one link (the regex consumes to the first
#     </a>), not two.
# The attribute scans on either side of href skip QUOTED attribute values
# ((?:[^>"']|"[^"<]*"|'[^'<]*')*?), so a '>' inside a quoted value (e.g.
# <a title="a>b" href="/x">) no longer terminates the tag early and drops
# the anchor — legal, if rare, in crawl html. A quoted value cannot span a
# '<', so an UNCLOSED quote cannot pair with a quote past the next tag
# (e.g. past this anchor's </a>) and glue one anchor's href onto a later
# anchor's text.
_ATTRS = r"(?:[^>\"']|\"[^\"<]*\"|'[^'<]*')"
_A_RE = re.compile(
    r"<a\b" + _ATTRS + r"*?href\s*=\s*"
    r"(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'=<>`]+))"
    + _ATTRS + r"*>(.*?)</a>",
    re.DOTALL | re.IGNORECASE,
)
_TAG_RE = re.compile(r"<[^>]+>")
_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
_HOST_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://([^/?#]+)")


def host_of(url: str) -> str:
    """Lowercased authority of an absolute URL ('' when there is none)."""
    m = _HOST_RE.match(url)
    return m.group(1).lower() if m else ""


_BASE_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*://[^/?#]+)([^?#]*)")


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 on an absolute path ('.'/'..' segments resolved;
    trailing '.'/'..' keeps the directory slash, '..' never climbs past
    root). Matches ``urllib.parse.urljoin``'s behavior on these inputs."""
    if "/." not in path and not path.startswith("."):
        return path  # hot-loop fast path: nothing to resolve
    segs = path.split("/")
    out: list[str] = []
    last = len(segs) - 1
    for i, s in enumerate(segs):
        if s == ".":
            if i == last:
                out.append("")
            continue
        if s == "..":
            if len(out) > 1:
                out.pop()
            if i == last:
                out.append("")
            continue
        out.append(s)
    if not out or out[0] != "":
        out.insert(0, "")
    return "/".join(out)


def resolve_href(href: str, base_url: str) -> str | None:
    """Absolutize ``href`` against ``base_url``; None for non-navigational
    targets (fragments, mailto:/javascript:, empty). Deterministic subset of
    RFC 3986 resolution sufficient for crawl html (parity with
    ``urllib.parse.urljoin`` asserted in tests): absolute http(s) URLs pass
    through, ``//host/p`` inherits the base scheme, ``/p`` is host-rooted,
    ``?q`` replaces the base query, and other relative paths merge against
    the base URL's directory — all with '.'/'..' dot segments resolved."""
    href = href.strip()
    if not href or href.startswith("#"):
        return None
    if _SCHEME_RE.match(href):
        low = href.lower()
        if low.startswith(("http://", "https://")):
            return href
        return None  # mailto:, javascript:, data:, tel:, ...
    m = _BASE_RE.match(base_url)
    if m is None:
        return None
    prefix, bpath = m.group(1), m.group(2)
    scheme = prefix.split(":", 1)[0]
    if href.startswith("//"):
        return f"{scheme}:{href}"
    if href.startswith("/"):
        return prefix + _remove_dot_segments(href)
    if href.startswith("?"):
        return prefix + (bpath or "/") + href
    # merge against the base directory (base path up to its last '/')
    base_dir = bpath.rsplit("/", 1)[0] + "/" if bpath else "/"
    return prefix + _remove_dot_segments(base_dir + href)


_TRACKING_EXACT = frozenset({"ref", "fbclid", "gclid", "msclkid", "mc_cid", "mc_eid"})
_URL_PARTS_RE = re.compile(r"^([^/]+//[^/?#]+)([^?#]*)(?:\?([^#]*))?(?:#.*)?$")


def canonical_url(url: str) -> str:
    """Crawl-dedup canonical form of an absolute URL.

    Normalizations (each a pure string rewrite — no network, no IDNA):
    scheme+authority lowercased; fragment dropped; tracking params
    (``utm_*`` and the exact names in ``_TRACKING_EXACT``) dropped and the
    survivors SORTED for order-independence; trailing slashes stripped from
    non-root paths. URLs without a ``scheme://authority`` prefix pass
    through unchanged (nothing to normalize against)."""
    m = _URL_PARTS_RE.match(url)
    if not m:
        return url
    prefix = m.group(1).lower()
    path = m.group(2) or ""
    query = m.group(3)
    keep: list[str] = []
    if query:
        for part in query.split("&"):
            k = part.split("=", 1)[0]
            if not k or k.startswith("utm_") or k in _TRACKING_EXACT:
                continue
            keep.append(part)
        keep.sort()
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/") or "/"
    return prefix + path + ("?" + "&".join(keep) if keep else "")


def extract_links(html_bytes: bytes | None, base_url: str) -> list[tuple[str, str]]:
    """html → document-ordered [(absolute_url, anchor_text)].

    Anchor text = the anchor's inner text with nested tags stripped, entities
    unescaped and whitespace normalized (may be ''). Unresolvable hrefs are
    dropped. Pure per-row function — safe at any parallelism."""
    if not html_bytes:
        return []
    doc = html_bytes.decode("utf-8", errors="replace")
    out: list[tuple[str, str]] = []
    for m in _A_RE.finditer(doc):
        raw = next(g for g in m.group(1, 2, 3) if g is not None)
        target = resolve_href(_htmllib.unescape(raw), base_url)
        if target is None:
            continue
        anchor = " ".join(_htmllib.unescape(_TAG_RE.sub(" ", m.group(4))).split())
        out.append((target, anchor))
    return out


# ------------------------------------------------------------ robots (RFC 9309)


def parse_robots(body: str) -> list[tuple[bool, str]]:
    """robots.txt → [(allow, path_prefix)] for the ``*`` user-agent group.

    Deterministic subset of RFC 9309 sufficient for crawl compliance:
    consecutive ``User-agent`` lines form ONE group (RFC 9309 §2.2.1 — a
    rule block headed by ``User-agent: *`` then ``User-agent: foo`` applies
    to BOTH agents, so the ``*`` group keeps those rules); a ``User-agent``
    line that follows rule lines STARTS A NEW group. ``Allow``/``Disallow``
    record literal path-prefix rules; comments and unknown directives are
    ignored (and do not end a user-agent block); an empty Disallow value
    means allow-all (no rule, but it does close the group header).

    Documented limitation: prefixes match LITERALLY — the RFC's optional
    ``*`` and ``$`` wildcards inside rule paths are NOT interpreted (a
    ``Disallow: /a*/b`` rule only blocks paths literally starting with
    ``/a*/b``). Matching semantics live in :func:`robots_allowed`."""
    rules: list[tuple[bool, str]] = []
    active = False  # current group includes the * agent
    in_ua_header = False  # still reading the group's consecutive UA lines
    for raw in body.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            if not in_ua_header:  # UA after rules: a new group begins
                active = False
                in_ua_header = True
            active = active or val == "*"
        elif key in ("allow", "disallow"):
            in_ua_header = False
            if active and val:
                rules.append((key == "allow", val))
    return rules


def robots_allowed(rules: list[tuple[bool, str]], path: str) -> bool:
    """RFC 9309 §2.2.2: the LONGEST matching prefix rule decides; on equal
    lengths Allow wins; no matching rule ⇒ allowed."""
    best_len = -1
    best_allow = True
    for allow, prefix in rules:
        if path.startswith(prefix):
            n = len(prefix)
            if n > best_len:
                best_len, best_allow = n, allow
            elif n == best_len and allow:
                best_allow = True  # equal length: Allow wins
    return best_allow


def links_table(pages_ds):
    """pages(url, html, ...) → Dataset(src_url, src_host, dst_url, dst_host,
    anchor). One row per extracted link; html never leaves the extracting
    task."""

    def explode(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        htmls = t.column("html").to_pylist()
        su, sh, du, dh, an = [], [], [], [], []
        for url, hb in zip(urls, htmls):
            bh = host_of(url)
            for dst, anchor in extract_links(hb, url):
                su.append(url)
                sh.append(bh)
                du.append(dst)
                dh.append(host_of(dst))
                an.append(anchor)
        return pa.table(
            {
                "src_url": pa.array(su, pa.string()),
                "src_host": pa.array(sh, pa.string()),
                "dst_url": pa.array(du, pa.string()),
                "dst_host": pa.array(dh, pa.string()),
                "anchor": pa.array(an, pa.string()),
            }
        )

    return pages_ds.map_batches(explode, batch_format="pyarrow")


def host_link_graph(pages_ds, *, include_self: bool = False):
    """→ Dataset(src_host, dst_host, n_links) — the host-level link graph.

    Per-batch partial counting (pandas value_counts on the host pair), then
    one bucketed ``grouped_aggregate`` Sum — shuffle rows ∝ distinct pairs
    per batch. ``include_self=False`` drops intra-host links (nav chrome)
    before anything is counted."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.select(["src_host", "dst_host"]).to_pandas()
        if not include_self:
            df = df[df["src_host"] != df["dst_host"]]
        out = (
            df.groupby(["src_host", "dst_host"], sort=False)
            .size()
            .reset_index(name="n_links")
        )
        return out

    links = links_table(pages_ds)
    return grouped_aggregate(
        links.map_batches(partial, batch_format="pyarrow"),
        ["src_host", "dst_host"],
        Sum("n_links", alias_name="n_links"),
    )


def anchor_top_terms(pages_ds, *, k: int = 3, include_self: bool = False):
    """Top-``k`` anchor texts per destination host, by (count desc, anchor
    asc) — deterministic ties. The weak-label aggregation: at crawl scale
    anchors for a target are the retrieval-training query set.

    Plan: per-batch partial (dst_host, anchor, n) counts → bucketed Sum →
    per-host top-k inside ``map_groups`` over host-hashed coarse buckets
    (vocabulary-sized input: one row per DISTINCT (host, anchor))."""
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.select(["src_host", "dst_host", "anchor"]).to_pandas()
        if not include_self:
            df = df[df["src_host"] != df["dst_host"]]
        df = df[df["anchor"] != ""]
        return (
            df.groupby(["dst_host", "anchor"], sort=False)
            .size()
            .reset_index(name="n")
        )

    counts = grouped_aggregate(
        links_table(pages_ds).map_batches(partial, batch_format="pyarrow"),
        ["dst_host", "anchor"],
        Sum("n", alias_name="n"),
    )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["dst_host", "n", "anchor"], ascending=[True, False, True]
        )
        return df.groupby("dst_host", sort=False).head(k)

    # distinct-(host, anchor) cardinality table → coarse host-hash buckets so
    # each map_groups task sees whole hosts but never one giant group key.
    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = df["dst_host"].map(lambda s: stable_hash64("ab:" + s) % 32)
        return df.assign(_b=h.astype(np.int64))

    out = (
        counts.map_batches(bucket, batch_format="pandas")
        .groupby("_b")
        .map_groups(topk, batch_format="pandas")
        .drop_columns(["_b"])
    )
    return out


def write_link_graph(pages_ds, out_dir: str, *, n_partitions: int = 16) -> dict:
    """Materialize the host link graph as a RESUMABLE partitioned Parquet
    table — the same per-partition lineage manifests, partition-aligned
    sorted writes and kill-and-rerun compute-skip the flagship KG tables get
    (stages/materialize.py): ``out_dir/host_graph/part=<k>/`` + manifests.

    Partitioned by ``src_host`` hash, rows sorted (src_host, dst_host)
    within each partition, so a re-crawl's incremental merge and any
    downstream reader get deterministic, splittable input. Returns the
    table manifest dict."""
    import os as _os

    from ..stages.materialize import write_partitioned

    g = host_link_graph(pages_ds)
    return write_partitioned(
        g,
        _os.path.join(out_dir, "host_graph"),
        "src_host",
        n_partitions=n_partitions,
        sort_key=["src_host", "dst_host"],
        lineage={"stage": "host_link_graph", "source": "pages"},
    )


# serialized-rules wire format for the parsed robots table: one string per
# host, rules joined by \x1e, each rule "A<prefix>" or "D<prefix>". Survives
# any join/broadcast as a plain string column; \x1e (record separator) cannot
# appear in an RFC 9309 path token.
_RULE_SEP = "\x1e"


def _rules_to_str(rules: list[tuple[bool, str]]) -> str:
    return _RULE_SEP.join(("A" if a else "D") + p for a, p in rules)


def _rules_from_str(s: str) -> list[tuple[bool, str]]:
    if not s:
        return []
    return [(r[0] == "A", r[1:]) for r in s.split(_RULE_SEP)]


def parsed_robots_table(robots_ds):
    """robots(host, body) → Dataset(host, rules) with ``rules`` the
    serialized parse (``_rules_to_str``). The parse runs DISTRIBUTED inside
    ``map_batches`` — at a 10⁸-host robots cache the bodies never congregate
    on the driver."""

    def parse(t: pa.Table) -> pa.Table:
        hosts = t.column("host").to_pylist()
        bodies = t.column("body").to_pylist()
        return pa.table(
            {"host": pa.array(hosts, pa.string()),
             "rules": pa.array(
                 [_rules_to_str(parse_robots(b or "")) for b in bodies],
                 pa.string())}
        )

    return robots_ds.map_batches(parse, batch_format="pyarrow")


def _frontier_path_partials(pages_ds):
    """links → per-batch (dst_host, path, n) partial counts of CROSS-HOST
    link targets. The self-host prefilter and the path extraction are
    vectorized Arrow kernels (``pc.not_equal`` mask + two
    ``replace_substring_regex`` passes); only resolved absolute http(s)
    URLs reach here (resolve_href's contract), so stripping the
    scheme://authority prefix always fires. Rows out ∝ distinct
    (host, path) per batch — hub targets collapse before any exchange."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("src_host"), t.column("dst_host")))
        path = pc.replace_substring_regex(
            t.column("dst_url"), r"^[a-zA-Z][a-zA-Z0-9+.-]*://[^/?#]+", "",
            max_replacements=1)
        path = pc.replace_substring_regex(path, r"[?#].*$", "",
                                          max_replacements=1)
        path = pc.if_else(pc.equal(path, ""), "/", path)
        df = pd.DataFrame(
            {"dst_host": t.column("dst_host").to_pylist(),
             "path": path.to_pylist()}
        )
        out = (df.groupby(["dst_host", "path"], sort=False)
               .size().reset_index(name="n"))
        return pa.Table.from_pandas(out, preserve_index=False)

    return links_table(pages_ds).map_batches(partial, batch_format="pyarrow")


def robots_frontier_filter(pages_ds, robots_ds, *,
                           broadcast_limit: int = 1_000_000):
    """Compliance gate on the outbound frontier → (dst_host, n_links,
    n_blocked): of the cross-host link targets, how many may NOT be fetched
    under the target host's robots.txt (RFC 9309 longest-match, * group).

    robots bodies are parsed DISTRIBUTED (``parsed_robots_table``) — never
    collected raw. The parsed rules table is then applied through the
    standard small-side gate, keyed on the robots HOST count:

    - ≤ ``broadcast_limit`` hosts: the serialized rules dict is broadcast
      once via ``ray.put`` and every (host, path, n) partial resolves
      map-side — zero shuffle of the link side;
    - above it: partitioned LEFT ``hash_join`` of the (host, path, n)
      partials against the rules table on ``dst_host`` (the
      ``dangling_links`` pattern) — nothing host-vocabulary-sized ever
      lands on the driver.

    Either way the prefix match runs per DISTINCT (host, path) row —
    vocabulary-sized, not link-sized — hosts with no robots entry are
    fetchable (RFC default), and per-batch (host, total, blocked) partials
    meet in ONE bucketed Sum exchange."""
    import ray as _ray
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    rules_tbl = parsed_robots_table(robots_ds).materialize()
    partials = _frontier_path_partials(pages_ds)

    if rules_tbl.count() <= broadcast_limit:
        from ..stages.materialize import collect_table

        rules_by_host = {
            r["host"]: _rules_from_str(r["rules"])
            for r in collect_table(rules_tbl).to_pylist()
        }
        rules_ref = _ray.put(rules_by_host)

        def tally(t: pa.Table) -> pd.DataFrame:
            rules = _ray.get(rules_ref)
            rows: dict[str, list[int]] = {}
            for h, p, n in zip(
                t.column("dst_host").to_pylist(),
                t.column("path").to_pylist(),
                pc.cast(t.column("n"), pa.int64()).to_pylist(),
            ):
                blocked = not robots_allowed(rules.get(h, []), p)
                agg = rows.setdefault(h, [0, 0])
                agg[0] += n
                agg[1] += n * int(blocked)
            return pd.DataFrame(
                {"dst_host": list(rows),
                 "n_links": [v[0] for v in rows.values()],
                 "n_blocked": [v[1] for v in rows.values()]}
            )

        tallied = partials.map_batches(tally, batch_format="pyarrow")
    else:
        joined = hash_join(
            partials,
            rules_tbl.map_batches(
                lambda t: pa.table({"dst_host": t.column("host"),
                                    "rules": t.column("rules")}),
                batch_format="pyarrow",
            ),
            on=["dst_host"], how="left",
        )

        def tally_joined(df: pd.DataFrame) -> pd.DataFrame:
            rows: dict[str, list[int]] = {}
            rls = df["rules"] if "rules" in df else pd.Series([], dtype=object)
            for h, p, n, rs in zip(
                df["dst_host"], df["path"], df["n"].astype("int64"), rls
            ):
                rules = _rules_from_str(rs) if isinstance(rs, str) else []
                blocked = not robots_allowed(rules, p)
                agg = rows.setdefault(h, [0, 0])
                agg[0] += int(n)
                agg[1] += int(n) * int(blocked)
            return pd.DataFrame(
                {"dst_host": list(rows),
                 "n_links": [v[0] for v in rows.values()],
                 "n_blocked": [v[1] for v in rows.values()]}
            )

        tallied = joined.map_batches(tally_joined, batch_format="pandas")

    return grouped_aggregate(
        tallied,
        ["dst_host"],
        Sum("n_links", alias_name="n_links"),
        Sum("n_blocked", alias_name="n_blocked"),
    )


def update_link_graph(
    table_dir: str, delta_pages_ds, out_dir: str, *, n_partitions: int = 16
) -> dict:
    """INCREMENTAL graph maintenance: merge a delta crawl into a
    materialized host graph (``write_link_graph`` layout) without touching
    the old crawl's pages — the CDC sibling of the KG's incremental update.

    The old side reads the AGGREGATED table (distinct-pair-sized, columns
    pruned at the parquet scan); only the delta pages pay link extraction;
    one bucketed Sum merges them — counts compose because Sum is
    associative, so N delta crawls fold in N merges with no re-parse.
    Output lands through the same partition-aligned manifest writer, with
    ``resume=False``: merge output is NEVER resumable against a previous
    merge's manifests (they describe a different input set — resuming
    would silently skip every partition and leave the old counts in
    place). In-place merge (``out_dir == table_dir``) is rejected for the
    same reason."""
    import glob as _glob
    import os as _os

    import ray.data as _rd
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate
    from ..stages.materialize import write_partitioned

    if _os.path.abspath(out_dir) == _os.path.abspath(table_dir):
        raise ValueError(
            "update_link_graph: out_dir == table_dir (in-place merge) would "
            "read and clobber the same host_graph table; write the merge to "
            "a fresh directory"
        )
    files = sorted(
        _glob.glob(_os.path.join(table_dir, "host_graph", "part=*", "*.parquet"))
    )
    old = _rd.read_parquet(files, columns=["src_host", "dst_host", "n_links"])
    delta = host_link_graph(delta_pages_ds)
    merged = grouped_aggregate(
        old.union(delta),
        ["src_host", "dst_host"],
        Sum("n_links", alias_name="n_links"),
    )
    return write_partitioned(
        merged,
        _os.path.join(out_dir, "host_graph"),
        "src_host",
        n_partitions=n_partitions,
        sort_key=["src_host", "dst_host"],
        resume=False,
        lineage={"stage": "host_link_graph", "delta_of": table_dir},
    )


def dangling_links(pages_ds, *, broadcast_limit: int = 2_000_000):
    """Broken/dangling-link audit → (dst_host, n_links, n_dangling): of the
    cross-host links a crawl extracted, how many point at URLs the crawl
    never captured. The coverage signal a frontier feeds on, and the
    anti-join-at-crawl-scale pattern: link targets vs the crawled URL set.

    Plan, gated on the crawled-url count (computed FIRST, one url scan —
    the url projection is materialized and reused):
    - ≤ ``broadcast_limit`` pages: the exact url frozenset is broadcast and
      every link probes it directly — a Bloom would be pure overhead when
      the exact set itself fits (functions/bloom.py's own guidance).
    - above the limit: a Bloom SIZED TO THE KEY COUNT (~10 bits/key, so it
      never saturates at exactly the scale this path exists for) is built
      distributed and broadcast; Bloom NEGATIVES are definitely dangling
      (no false negatives) and never shuffle, and only POSITIVES — true
      matches + the ~1% FP slice — take the partitioned flagged LEFT
      ``hash_join`` against the url table (the kg.py gate pattern).
    Exactness is independent of the Bloom FP rate. All aggregation is
    per-batch partial counts into bucketed host-sized exchanges
    (pre_aggregated_count)."""
    import math as _math

    import ray as _ray

    from ..stages.canonicalize import pre_aggregated_count
    from ..stages.joins import hash_join
    from .bloom import build_bloom

    urls_ds = pages_ds.select_columns(["url"]).materialize()
    n_pages = urls_ds.count()
    links = links_table(pages_ds.select_columns(["url", "html"]))

    def cross_host(t: pa.Table) -> pa.Table:
        # vectorized self-host prefilter (pc.not_equal mask) — no Python
        # row loop runs before the filtered, usually much smaller, slice
        return t.filter(
            pc.not_equal(t.column("src_host"), t.column("dst_host"))
        ).select(["dst_host", "dst_url"])

    if n_pages <= broadcast_limit:
        from ..stages.materialize import collect_table

        url_set_ref = _ray.put(frozenset(
            r["url"] for r in collect_table(urls_ds).to_pylist()))

        def probe_exact(t: pa.Table) -> pa.Table:
            s = _ray.get(url_set_ref)
            keep = cross_host(t)
            return pa.table(
                {"dst_host": keep.column("dst_host"),
                 "dangling": pa.array(
                     [u not in s for u in keep.column("dst_url").to_pylist()],
                     pa.bool_())}
            )

        tagged = links.map_batches(probe_exact, batch_format="pyarrow").materialize()
        totals = pre_aggregated_count(tagged, ["dst_host"], "n_links")
        dang_rows = tagged.map_batches(
            lambda t: t.filter(t.column("dangling")).select(["dst_host"]),
            batch_format="pyarrow",
        )
    else:
        n_bits = 1 << max(20, _math.ceil(_math.log2(n_pages * 10)))
        bloom_ref = _ray.put(build_bloom(urls_ds, "url", n_bits=n_bits))

        def probe_bloom(t: pa.Table) -> pa.Table:
            bf = _ray.get(bloom_ref)
            keep = cross_host(t)
            return pa.table(
                {"dst_host": keep.column("dst_host"),
                 "dst_url": keep.column("dst_url"),
                 "maybe": pa.array(
                     [u in bf for u in keep.column("dst_url").to_pylist()],
                     pa.bool_())}
            )

        probed = links.map_batches(probe_bloom, batch_format="pyarrow").materialize()
        totals = pre_aggregated_count(probed, ["dst_host"], "n_links")
        definite = probed.map_batches(
            lambda t: t.filter(pc.invert(t.column("maybe"))).select(["dst_host"]),
            batch_format="pyarrow",
        )
        maybes = probed.map_batches(
            lambda t: t.filter(t.column("maybe")).select(["dst_host", "dst_url"]),
            batch_format="pyarrow",
        )
        flagged = hash_join(
            maybes,
            urls_ds.map_batches(
                lambda t: pa.table(
                    {"dst_url": t.column("url"),
                     "hit": pa.array(np.ones(t.num_rows, np.int64))}
                ),
                batch_format="pyarrow",
            ),
            on=["dst_url"], how="left",
        )
        fp_dangling = flagged.map_batches(
            lambda df: df[df["hit"].fillna(0).astype("int64") == 0][["dst_host"]],
            batch_format="pandas",
        )
        dang_rows = definite.union(fp_dangling)

    dangling = pre_aggregated_count(dang_rows, ["dst_host"], "n_dangling").materialize()
    if dangling.count() == 0:
        # fully-resolved crawl: zero-fill without joining an empty side
        # (empty datasets have no schema — Dataset.join/union on them throws)
        return totals.map_batches(
            lambda df: df.assign(n_dangling=np.int64(0)),
            batch_format="pandas",
        )

    out = hash_join(totals, dangling, on=["dst_host"], how="left")
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"dst_host": df["dst_host"],
             "n_links": df["n_links"].astype("int64"),
             "n_dangling": df["n_dangling"].fillna(0).astype("int64")}
        ),
        batch_format="pandas",
    )


def crawl_frontier(pages_ds, *, n_iters: int = 3):
    """Recrawl-prioritization table → (host, n_pages, latest_ts, pr,
    priority) sorted most-urgent-first.

    The scheduling heuristic every crawler runs: importance (host PageRank
    over the link graph) × staleness (whole DAYS since the host's LATEST
    capture, relative to the corpus-wide newest capture). priority =
    pr · age_days — integer-exact and overflow-safe (pr ≤ PR_SCALE = 10¹²,
    age_days < 10⁵ even from epoch, product ≪ 2⁶³; µs staleness would
    silently wrap int64), so the ranking is reproducible at any
    parallelism. Day granularity is the natural recrawl unit.

    Plan: pages contribute only (host, 1, warc_ts) partials — Count + Max
    per host in ONE bucketed exchange over host-sized rows — FULL-OUTER
    hash-joined (partitioned) with the PageRank table. Hosts seen only as
    link TARGETS (uncrawled frontier) get n_pages=0 and maximal staleness —
    the discover-new-hosts path; crawled hosts with NO cross-host link
    evidence (intra-host links only, no inlinks) are absent from the graph
    and carry pr=0 — present in the frontier, lowest priority, never
    silently dropped."""
    from ray.data.aggregate import Count, Max

    from ..stages.canonicalize import grouped_aggregate
    from ..stages.joins import hash_join

    def partial(t: pa.Table) -> pa.Table:
        hosts = [host_of(u) for u in t.column("url").to_pylist()]
        ts = t.column("warc_ts").cast(pa.int64()).to_pylist()
        return pa.table(
            {"host": pa.array(hosts, pa.string()),
             "ts_us": pa.array(ts, pa.int64())}
        )

    # two read branches, each column-pruned at the parquet scan: the crawl
    # side never loads html, the link side never loads warc_ts
    crawled = grouped_aggregate(
        pages_ds.select_columns(["url", "warc_ts"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["host"],
        Count(alias_name="n_pages"),
        Max("ts_us", alias_name="latest_ts"),
    ).materialize()
    now_us = int(crawled.max("latest_ts") or 0)

    pr = host_pagerank(pages_ds.select_columns(["url", "html"]), n_iters=n_iters)
    joined = hash_join(pr, crawled, on=["host"], how="outer")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"host": pd.Series([], dtype="object"),
                 "n_pages": pd.Series([], dtype="int64"),
                 "latest_ts": pd.Series([], dtype="int64"),
                 "pr": pd.Series([], dtype="int64"),
                 "priority": pd.Series([], dtype="int64")}
            )
        n = df["n_pages"].fillna(0).astype("int64")
        latest = df["latest_ts"].fillna(0).astype("int64")
        # outer join: crawled-but-unlinked hosts carry pr=0 (no evidence)
        prv = df["pr"].fillna(0).astype("int64")
        # uncrawled hosts: maximal staleness (age from epoch)
        age_days = (now_us - latest) // 86_400_000_000
        return pd.DataFrame(
            {"host": df["host"], "n_pages": n, "latest_ts": latest,
             "pr": prv, "priority": prv * age_days}
        )

    return joined.map_batches(score, batch_format="pandas")


def host_pagerank(pages_ds, *, n_iters: int = 3, weighted: bool = False):
    """PageRank over the host link graph → (host, pr) with the integer-exact
    power iteration from functions/graph.py. With ``weighted=True`` the
    link COUNTS become edge weights (functions/graph.pagerank_weighted —
    per-edge floor shares ∝ n_links): a host linking another 500 times
    endorses it more than one footer link.

    Host → node id via ``stable_hash64 % 2^62`` (no distinct pass; 62 bits
    keep ids positive int64 and put the birthday-collision expectation at
    ~n²/2^63 ≈ 10⁻³ even for a 10⁸-host vocabulary — 31-bit ids would
    expect millions of silent host merges there). The id→host names come
    from the graph's OWN distinct host set, joined back at graph-vocabulary
    size. At a real crawl's ~10^8-host vocabulary every step here stays
    partitioned: the pagerank rounds are hash_join-based and the name
    attach is one more hash_join. Uses the engine's (symmetrized,
    integer-exact) power iteration, so scores reflect undirected link
    mass — identical convention to ``q_graph_pagerank``."""
    from .graph import pagerank, pagerank_weighted
    from ..stages.joins import hash_join

    g = host_link_graph(pages_ds, include_self=False).materialize()

    def to_edges(t: pa.Table) -> pa.Table:
        su = [stable_hash64("host:" + s) % (1 << 62) for s in t.column("src_host").to_pylist()]
        du = [stable_hash64("host:" + s) % (1 << 62) for s in t.column("dst_host").to_pylist()]
        cols = {"u": pa.array(su, pa.int64()), "v": pa.array(du, pa.int64())}
        if weighted:
            cols["w"] = pc.cast(t.column("n_links"), pa.int64())
        return pa.table(cols)

    edges = g.map_batches(to_edges, batch_format="pyarrow")
    pr = (pagerank_weighted(edges, n_iters=n_iters) if weighted
          else pagerank(edges, n_iters=n_iters))

    def names(t: pa.Table) -> pa.Table:
        hosts = sorted(
            set(t.column("src_host").to_pylist())
            | set(t.column("dst_host").to_pylist())
        )
        return pa.table(
            {
                "node": pa.array(
                    [stable_hash64("host:" + h) % (1 << 62) for h in hosts],
                    pa.int64(),
                ),
                "host": pa.array(hosts, pa.string()),
                "one": pa.array([1] * len(hosts), pa.int64()),
            }
        )

    # distinct (node, host): per-batch set-dedup above, then ONE bucketed
    # exchange — not groupby(node).map_groups, whose per-GROUP Python reduce
    # is exactly the overhead grouped_aggregate exists to avoid.
    from ray.data.aggregate import Sum

    from ..stages.canonicalize import grouped_aggregate

    name_tbl = grouped_aggregate(
        g.map_batches(names, batch_format="pyarrow"),
        ["node", "host"],
        Sum("one", alias_name="one"),
    ).drop_columns(["one"])
    joined = hash_join(pr, name_tbl, on=["node"])
    return joined.select_columns(["host", "pr"])
