"""Hyperlink extraction + host link graph (functions/weblinks.py).

Parity oracle: an INDEPENDENT stdlib ``html.parser.HTMLParser`` +
``urllib.parse.urljoin`` reference implementation — no code shared with the
regex extractor under test — run over the full synthetic crawl.  Gold oracle:
the generator's ``gold_links.parquet`` (sources/pages.py plants every
outbound link it renders), aggregated with plain pandas.
"""

import os
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ner_extractor_ray.functions.weblinks import (
    canonical_url,
    extract_links,
    host_of,
    resolve_href,
)


# ------------------------------------------------------------------ reference

class _RefLinkParser(HTMLParser):
    """Stack-based anchor collector: (raw_href, inner_text) per <a>."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.raw = []
        self._open = []  # [href, [text parts]] for each nested open <a>

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            self._open.append([dict(attrs).get("href", ""), []])

    def handle_endtag(self, tag):
        if tag == "a" and self._open:
            href, parts = self._open.pop()
            self.raw.append((href, " ".join(" ".join(parts).split())))

    def handle_data(self, data):
        for frame in self._open:
            frame[1].append(data)


def ref_extract(html_bytes: bytes, base_url: str):
    p = _RefLinkParser()
    p.feed(html_bytes.decode("utf-8", errors="replace"))
    out = []
    for href, anchor in p.raw:
        href = href.strip()
        if not href or href.startswith("#"):
            continue
        u = urljoin(base_url, href)
        if urlsplit(u).scheme not in ("http", "https"):
            continue
        out.append((u, anchor))
    return out


def _pages_rows(pages_dir):
    rows = []
    for f in sorted(os.listdir(pages_dir)):
        if f.startswith("pages-"):
            t = pq.read_table(os.path.join(pages_dir, f), columns=["url", "html"])
            rows += list(zip(t.column("url").to_pylist(), t.column("html").to_pylist()))
    return rows


# ---------------------------------------------------------------- unit tests

def test_resolve_href_cases():
    base = "https://news.example.org/article-7"
    assert resolve_href("https://a.b/x", base) == "https://a.b/x"
    assert resolve_href("http://a.b/x", base) == "http://a.b/x"
    assert resolve_href("//cdn.example.com/i.js", base) == "https://cdn.example.com/i.js"
    assert resolve_href("/about", base) == "https://news.example.org/about"
    assert resolve_href("more", base) == "https://news.example.org/more"
    assert resolve_href("#frag", base) is None
    assert resolve_href("", base) is None
    assert resolve_href("mailto:x@y.z", base) is None
    assert resolve_href("javascript:void(0)", base) is None
    assert host_of("https://News.Example.org/p?q=1") == "news.example.org"
    assert host_of("not a url") == ""


def test_resolve_href_urljoin_parity_edges():
    """The RFC-subset resolver matches urllib.parse.urljoin on the shapes
    crawl html actually produces — including the ones the synthetic corpus
    never exercises (path-less base, dot segments, scheme-relative under
    http, query-only refs)."""
    cases = [
        ("more", "https://news.example.org"),           # base has NO path
        ("a/b", "https://h.x"),
        ("../c", "https://h.x/a/b"),
        ("../../up", "https://h.x/a/b/c"),
        ("../../../past-root", "https://h.x/a"),
        ("./here", "https://h.x/a/b"),
        (".", "https://h.x/a/b"),
        ("..", "https://h.x/a/b/"),
        ("/a/../b", "https://h.x/p/q"),
        ("//cdn.x/y", "http://h.x/p"),                   # inherits http
        ("?page=2", "https://h.x/a/b"),
        ("c?x=1", "https://h.x/a/b"),
    ]
    for href, base in cases:
        assert resolve_href(href, base) == urljoin(base, href), (href, base)


def test_canonical_url_properties():
    """Idempotence + invariants over generated URLs: a second normalization
    is a no-op, and no canonical form carries a fragment or tracking param."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    seg = st.text(
        alphabet="abcXYZ019-._~", min_size=0, max_size=6
    )
    param = st.sampled_from(
        ["utm_source=x", "utm_medium=y", "ref=tw", "gclid=1",
         "page=2", "q=a+b", "id=7", "sort=desc", ""]
    )
    urls = st.builds(
        lambda scheme, host, path, params, frag: (
            f"{scheme}://{host}"
            + "".join("/" + p for p in path)
            + ("/" if frag == "slash" else "")
            + ("?" + "&".join(params) if params else "")
            + ("#sec" if frag == "frag" else "")
        ),
        st.sampled_from(["http", "HTTPS", "https"]),
        st.sampled_from(["E.org", "www.ex.NET", "a-b.example"]),
        st.lists(seg, max_size=3),
        st.lists(param, max_size=4),
        st.sampled_from(["none", "frag", "slash"]),
    )

    @settings(max_examples=200, deadline=None)
    @given(urls)
    def check(u):
        c = canonical_url(u)
        assert canonical_url(c) == c
        assert "#" not in c
        assert "utm_" not in c and "gclid" not in c and "ref=tw" not in c
        # authority is lowercased
        assert c.split("//", 1)[0].islower() or "//" not in c

    check()


def test_extract_links_markup_shapes():
    base = "https://h.example.com/article-1"
    html = (
        b"<html><body>"
        b"<a href='https://a.b/x'>plain</a>"
        b'<a href="https://a.b/y"><b>bold</b> tail</a>'
        b"<a href=\"/rel\">rooted &amp; escaped</a>"
        b"<a href='#skip'>frag</a>"
        b"<a href='mailto:x@y'>mail</a>"
        b"</body></html>"
    )
    got = extract_links(html, base)
    assert got == [
        ("https://a.b/x", "plain"),
        ("https://a.b/y", "bold tail"),
        ("https://h.example.com/rel", "rooted & escaped"),
    ]
    assert extract_links(None, base) == []
    assert extract_links(b"", base) == []
    # unquoted href attributes are legal HTML and must extract
    assert extract_links(b"<a href=/about>x</a>", base) == [
        ("https://h.example.com/about", "x")
    ]
    assert extract_links(b"<a href=https://a.b/u class=nav>u</a>", base) == [
        ("https://a.b/u", "u")
    ]


def test_canonical_url_cases():
    # authority lowercased, path case preserved
    assert canonical_url("HTTPS://WWW.Ex.ORG/A/B") == "https://www.ex.org/A/B"
    # fragment dropped
    assert canonical_url("https://e.org/p#sec2") == "https://e.org/p"
    # tracking params dropped; survivors kept and SORTED
    assert (
        canonical_url("https://e.org/p?utm_source=x&page=2&ref=tw&b=1")
        == "https://e.org/p?b=1&page=2"
    )
    # all-tracking query disappears entirely (no dangling '?')
    assert canonical_url("https://e.org/p?utm_a=1&gclid=z") == "https://e.org/p"
    # trailing slash(es) stripped on non-root paths, root kept
    assert canonical_url("https://e.org/a/b/") == "https://e.org/a/b"
    assert canonical_url("https://e.org/a//") == "https://e.org/a"
    assert canonical_url("https://e.org///") == "https://e.org/"
    assert canonical_url("https://e.org/") == "https://e.org/"
    assert canonical_url("https://e.org") == "https://e.org"
    # non-URL strings pass through
    assert canonical_url("not a url") == "not a url"


# --------------------------------------------------- corpus parity vs stdlib

# malformed markup: an unclosed quote inside an anchor must not let the
# attribute scan run past that anchor's </a> into a later quote
_MALFORMED = [
    b'<a href="https://a.b/x" title="unclosed>X</a><p>"</p>'
    b'<a href="https://a.b/y">Y</a>',
    b'<a data-x="unclosed href="https://a.b/x">X</a><p>t</p>'
    b'<a href="https://a.b/y">Y</a>',
    b'<a title="x>X</a> text "quoted" <a href="https://a.b/y">Y</a>',
]


def test_extract_links_parity_vs_htmlparser(small_pages_dir):
    rows = _pages_rows(small_pages_dir)
    assert len(rows) == 300
    n_links = 0
    for url, hb in rows:
        got = extract_links(hb, url)
        want = ref_extract(hb, url)
        assert got == want, url
        n_links += len(got)
    assert n_links >= 2 * len(rows)  # nav links alone guarantee 2/page
    base = "https://h.example.com/article-1"
    for hb in _MALFORMED:
        assert extract_links(hb, base) == ref_extract(hb, base) != [], hb


def test_extract_links_matches_gold_links(small_pages_dir):
    """Per page: extracted == [nav home, nav about] + planted gold links."""
    gold = pq.read_table(os.path.join(small_pages_dir, "gold_links.parquet")).to_pandas()
    by_src = {
        u: list(zip(g["dst_url"], g["anchor"]))
        for u, g in gold.groupby("src_url", sort=False)
    }
    for url, hb in _pages_rows(small_pages_dir):
        h = host_of(url)
        got = extract_links(hb, url)
        assert got[:2] == [(f"https://{h}/", "home"), (f"https://{h}/about", "about")]
        assert got[2:] == by_src.get(url, [])


# --------------------------------------------------------- distributed plans

def _expected_host_graph(gold: pd.DataFrame) -> pd.DataFrame:
    df = gold.assign(
        src_host=gold["src_url"].map(lambda u: urlsplit(u).netloc.lower()),
        dst_host=gold["dst_url"].map(lambda u: urlsplit(u).netloc.lower()),
    )
    df = df[df["src_host"] != df["dst_host"]]
    return (
        df.groupby(["src_host", "dst_host"])
        .size()
        .reset_index(name="n_links")
        .sort_values(["src_host", "dst_host"])
        .reset_index(drop=True)
    )


def test_host_link_graph_matches_gold(small_pages_dir):
    from ner_extractor_ray.functions.weblinks import host_link_graph
    from ner_extractor_ray.pipelines.kg import pages_dataset

    got = (
        host_link_graph(pages_dataset(small_pages_dir))
        .to_pandas()
        .sort_values(["src_host", "dst_host"])
        .reset_index(drop=True)
    )
    gold = pq.read_table(os.path.join(small_pages_dir, "gold_links.parquet")).to_pandas()
    want = _expected_host_graph(gold)
    pd.testing.assert_frame_equal(
        got.astype({"n_links": "int64"}), want.astype({"n_links": "int64"})
    )
    # planted Pareto head skew: inlink mass is concentrated, not uniform
    inmass = want.groupby("dst_host")["n_links"].sum().sort_values(ascending=False)
    assert inmass.iloc[0] >= 3 * inmass.iloc[-1]


def test_anchor_top_terms_matches_gold(small_pages_dir):
    from ner_extractor_ray.functions.weblinks import anchor_top_terms
    from ner_extractor_ray.pipelines.kg import pages_dataset

    got = (
        anchor_top_terms(pages_dataset(small_pages_dir), k=3)
        .to_pandas()
        .sort_values(["dst_host", "anchor"])
        .reset_index(drop=True)
    )
    gold = pq.read_table(os.path.join(small_pages_dir, "gold_links.parquet")).to_pandas()
    df = gold.assign(
        src_host=gold["src_url"].map(lambda u: urlsplit(u).netloc.lower()),
        dst_host=gold["dst_url"].map(lambda u: urlsplit(u).netloc.lower()),
    )
    df = df[(df["src_host"] != df["dst_host"]) & (df["anchor"] != "")]
    counts = df.groupby(["dst_host", "anchor"]).size().reset_index(name="n")
    want = (
        counts.sort_values(["dst_host", "n", "anchor"], ascending=[True, False, True])
        .groupby("dst_host", sort=False)
        .head(3)
        .sort_values(["dst_host", "anchor"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["dst_host", "anchor", "n"]].astype({"n": "int64"}),
        want.astype({"n": "int64"}),
    )


def test_crawl_frontier_matches_pandas_replication(small_pages_dir):
    """Composition check: n_pages/latest_ts from the pages table, pr carried
    from host_pagerank (already pinned above), priority = pr × age_DAYS
    (day granularity keeps the int64 product overflow-safe), and uncrawled
    link-target hosts present with n_pages=0 / maximal age."""
    from ner_extractor_ray.functions.weblinks import crawl_frontier, host_pagerank
    from ner_extractor_ray.pipelines.kg import pages_dataset

    got = (
        crawl_frontier(pages_dataset(small_pages_dir, with_ts=True), n_iters=2)
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    pr = host_pagerank(pages_dataset(small_pages_dir), n_iters=2).to_pandas()

    pages = pa.concat_tables(
        [
            pq.read_table(os.path.join(small_pages_dir, f), columns=["url", "warc_ts"])
            for f in sorted(os.listdir(small_pages_dir))
            if f.startswith("pages-")
        ]
    ).to_pandas()
    pages["host"] = pages["url"].map(lambda u: urlsplit(u).netloc.lower())
    pages["ts_us"] = pages["warc_ts"].astype("int64")
    crawled = pages.groupby("host").agg(
        n_pages=("url", "size"), latest_ts=("ts_us", "max")
    )
    now_us = int(pages["ts_us"].max())

    want = pr.set_index("host").join(crawled, how="outer")
    want["pr"] = want["pr"].fillna(0).astype("int64")
    want["n_pages"] = want["n_pages"].fillna(0).astype("int64")
    want["latest_ts"] = want["latest_ts"].fillna(0).astype("int64")
    want["priority"] = want["pr"].astype("int64") * (
        (now_us - want["latest_ts"]) // 86_400_000_000
    )
    want = want.reset_index().sort_values("host").reset_index(drop=True)
    cols = ["host", "n_pages", "latest_ts", "pr", "priority"]
    pd.testing.assert_frame_equal(
        got[cols].astype({c: "int64" for c in cols[1:]}),
        want[cols].astype({c: "int64" for c in cols[1:]}),
    )


def test_crawl_frontier_uncrawled_host(tmp_path):
    """A host seen only as a link TARGET surfaces with n_pages=0 and maximal
    staleness (age = now), out-prioritizing an equally-ranked crawled host."""
    from ner_extractor_ray.functions.weblinks import crawl_frontier
    from ner_extractor_ray.pipelines.kg import pages_dataset

    def page(url, ts, hrefs):
        body = "".join(f'<a href="{h}">x</a>' for h in hrefs)
        return {
            "url": url,
            "warc_ts": ts,
            "html": f"<html><body><p>t</p>{body}</body></html>".encode(),
            "text": "t",
            "lang": "en",
        }

    DAY = 86_400_000_000
    rows = [
        page("https://a.example/p1", 1 * DAY, ["https://b.example/q", "https://ghost.example/z"]),
        page("https://b.example/q", 3 * DAY, ["https://a.example/p1"]),
        # crawled host with ONLY an intra-host link: absent from the link
        # graph, must still appear in the frontier (pr=0, never dropped)
        page("https://lonely.example/r", 2 * DAY, ["https://lonely.example/other"]),
    ]
    t = pa.table({k: [r[k] for r in rows] for k in rows[0]}).cast(
        pa.schema(
            [
                ("url", pa.string()),
                ("warc_ts", pa.timestamp("us")),
                ("html", pa.binary()),
                ("text", pa.string()),
                ("lang", pa.string()),
            ]
        )
    )
    pq.write_table(t, str(tmp_path / "pages-0000.parquet"))
    out = (
        crawl_frontier(pages_dataset(str(tmp_path), with_ts=True), n_iters=1)
        .to_pandas()
        .set_index("host")
    )
    assert out.loc["ghost.example", "n_pages"] == 0
    assert out.loc["ghost.example", "latest_ts"] == 0
    # maximal staleness: age == corpus-wide now (3 days)
    assert (
        out.loc["ghost.example", "priority"]
        == out.loc["ghost.example", "pr"] * 3
    )
    # a.example captured at day 1 → 2 days stale; b.example fresh → 0
    assert out.loc["a.example", "priority"] == out.loc["a.example", "pr"] * 2
    assert out.loc["b.example", "priority"] == 0
    assert out.loc["b.example", "n_pages"] == 1
    # link-isolated crawled host survives the outer join with pr=0
    assert out.loc["lonely.example", "n_pages"] == 1
    assert out.loc["lonely.example", "pr"] == 0
    assert out.loc["lonely.example", "priority"] == 0


@pytest.mark.parametrize("broadcast_limit", [2_000_000, 0])
def test_dangling_links_matches_gold(small_pages_dir, broadcast_limit):
    """Both verify paths (broadcast url-set and Bloom + partitioned left
    hash_join at limit=0) must equal the pandas replication on gold_links:
    a cross-host target dangles iff its url is not a crawled page url."""
    from ner_extractor_ray.functions.weblinks import dangling_links
    from ner_extractor_ray.pipelines.kg import pages_dataset

    got = (
        dangling_links(
            pages_dataset(small_pages_dir), broadcast_limit=broadcast_limit
        )
        .to_pandas()
        .sort_values("dst_host")
        .reset_index(drop=True)
    )
    gold = pq.read_table(os.path.join(small_pages_dir, "gold_links.parquet")).to_pandas()
    crawled = set()
    for url, _ in _pages_rows(small_pages_dir):
        crawled.add(url)
    df = gold.assign(
        src_host=gold["src_url"].map(lambda u: urlsplit(u).netloc.lower()),
        dst_host=gold["dst_url"].map(lambda u: urlsplit(u).netloc.lower()),
    )
    df = df[df["src_host"] != df["dst_host"]]
    df["dangling"] = ~df["dst_url"].isin(crawled)
    want = (
        df.groupby("dst_host")
        .agg(n_links=("dst_url", "size"), n_dangling=("dangling", "sum"))
        .reset_index()
        .sort_values("dst_host")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"n_links": "int64", "n_dangling": "int64"}),
        want.astype({"n_links": "int64", "n_dangling": "int64"}),
    )
    assert got["n_dangling"].sum() > 0  # the 20k-article universe dangles


def test_host_link_graph_format_independent(small_pages_dir, tmp_path):
    """The web family is source-format-agnostic: the host link graph built
    from the WARC and JSONL readers is identical to the Parquet path (same
    pages, same seed)."""
    from ner_extractor_ray.functions.weblinks import host_link_graph
    from ner_extractor_ray.pipelines.kg import pages_dataset
    from ner_extractor_ray.sources.pages import pages_dataset_jsonl, write_pages_jsonl
    from ner_extractor_ray.sources.warc import pages_dataset_warc, write_pages_warc

    wdir, jdir = str(tmp_path / "warc"), str(tmp_path / "jsonl")
    write_pages_warc(wdir, 300, seed=42, n_files=4)
    write_pages_jsonl(jdir, 300, seed=42, n_files=4)

    def graph(ds):
        return (
            host_link_graph(ds)
            .to_pandas()
            .sort_values(["src_host", "dst_host"])
            .reset_index(drop=True)
        )

    base = graph(pages_dataset(small_pages_dir))
    pd.testing.assert_frame_equal(base, graph(pages_dataset_warc(wdir)))
    pd.testing.assert_frame_equal(base, graph(pages_dataset_jsonl(jdir)))


def test_write_link_graph_resumable(small_pages_dir, tmp_path):
    """The link graph materializes through the same manifest machinery as
    the KG tables: partitioned sorted parquet + per-partition manifests,
    rerun skips completed partitions, and the written rows equal the
    in-memory graph."""
    import glob
    import json
    import time

    from ner_extractor_ray.functions.weblinks import host_link_graph, write_link_graph
    from ner_extractor_ray.pipelines.kg import pages_dataset

    out = str(tmp_path / "linkgraph")
    man = write_link_graph(pages_dataset(small_pages_dir), out, n_partitions=4)
    tdir = os.path.join(out, "host_graph")
    assert os.path.exists(os.path.join(tdir, "_TABLE_MANIFEST.json"))
    pmans = sorted(glob.glob(os.path.join(tdir, "part=*/_MANIFEST.json")))
    assert pmans  # every written partition carries its lineage manifest

    files = sorted(glob.glob(os.path.join(tdir, "part=*/*.parquet")))
    written = (
        pa.concat_tables([pq.read_table(f) for f in files])
        .to_pandas()
        .sort_values(["src_host", "dst_host"])
        .reset_index(drop=True)
    )
    mem = (
        host_link_graph(pages_dataset(small_pages_dir))
        .to_pandas()
        .sort_values(["src_host", "dst_host"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        written[["src_host", "dst_host", "n_links"]].astype({"n_links": "int64"}),
        mem.astype({"n_links": "int64"}),
    )

    # resume: rerun must skip every completed partition (files untouched)
    mtimes = {f: os.path.getmtime(f) for f in files}
    write_link_graph(pages_dataset(small_pages_dir), out, n_partitions=4)
    assert {f: os.path.getmtime(f) for f in files} == mtimes

    # torn-write recovery: drop one partition's manifest → only it rewrites
    victim = pmans[0]
    vdir = os.path.dirname(victim)
    os.remove(victim)
    time.sleep(0.01)
    write_link_graph(pages_dataset(small_pages_dir), out, n_partitions=4)
    assert os.path.exists(victim)
    untouched = {f: os.path.getmtime(f) for f in files if not f.startswith(vdir)}
    assert all(mtimes[f] == t for f, t in untouched.items())
    with open(victim) as fh:
        assert json.load(fh)["rows"] > 0


def test_update_link_graph_incremental_merge(small_pages_dir, tmp_path):
    """Splitting the crawl in half and merging the second half as a DELTA
    must equal the graph built from the full crawl in one pass — Sum
    composes, no old page is re-parsed."""
    from ner_extractor_ray.functions.weblinks import (
        host_link_graph,
        update_link_graph,
        write_link_graph,
    )
    from ner_extractor_ray.pipelines.kg import pages_dataset
    from ner_extractor_ray.sources.pages import generate_pages

    a_dir, b_dir = str(tmp_path / "crawl_a"), str(tmp_path / "crawl_b")
    for d, start in ((a_dir, 0), (b_dir, 150)):
        os.makedirs(d)
        tbl, _ = generate_pages(150, seed=42, start_index=start)
        pq.write_table(tbl, os.path.join(d, "pages-0000.parquet"))

    out_a = str(tmp_path / "graph_a")
    write_link_graph(pages_dataset(a_dir), out_a, n_partitions=4)
    out_ab = str(tmp_path / "graph_ab")
    update_link_graph(out_a, pages_dataset(b_dir), out_ab, n_partitions=4)

    import glob

    files = sorted(glob.glob(os.path.join(out_ab, "host_graph", "part=*/*.parquet")))
    merged = (
        pa.concat_tables([pq.read_table(f) for f in files])
        .to_pandas()[["src_host", "dst_host", "n_links"]]
        .sort_values(["src_host", "dst_host"])
        .reset_index(drop=True)
    )
    full = (
        host_link_graph(pages_dataset(small_pages_dir))
        .to_pandas()
        .sort_values(["src_host", "dst_host"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        merged.astype({"n_links": "int64"}), full.astype({"n_links": "int64"})
    )


def test_robots_parser_semantics():
    from ner_extractor_ray.functions.weblinks import parse_robots, robots_allowed

    body = (
        "# policy\n"
        "User-agent: *\n"
        "Disallow: /article-1\n"
        "Allow: /article-12\n"
        "User-agent: evilbot\n"
        "Disallow: /\n"
    )
    rules = parse_robots(body)
    assert rules == [(False, "/article-1"), (True, "/article-12")]
    # longest-match: the longer Allow carves /article-12* out of /article-1*
    assert not robots_allowed(rules, "/article-1")
    assert not robots_allowed(rules, "/article-19")
    assert robots_allowed(rules, "/article-12")
    assert robots_allowed(rules, "/article-123")
    # unmatched paths default to allowed; evilbot group was ignored
    assert robots_allowed(rules, "/about")
    # equal-length tie → Allow wins (RFC 9309 §2.2.2)
    tie = [(False, "/a"), (True, "/a")]
    assert robots_allowed(tie, "/a/x")
    # empty Disallow value = no rule (allow-all form)
    assert parse_robots("User-agent: *\nDisallow:\n") == []
    assert robots_allowed([], "/anything")


def test_robots_frontier_filter_matches_replication(small_pages_dir):
    import ray.data as rd

    from ner_extractor_ray.functions.weblinks import (
        parse_robots,
        robots_allowed,
        robots_frontier_filter,
    )
    from ner_extractor_ray.pipelines.kg import pages_dataset
    from ner_extractor_ray.sources.pages import robots_body, write_robots

    rpath = write_robots(small_pages_dir + "_robots", seed=42)
    got = (
        robots_frontier_filter(pages_dataset(small_pages_dir), rd.read_parquet(rpath))
        .to_pandas()
        .sort_values("dst_host")
        .reset_index(drop=True)
    )
    gold = pq.read_table(os.path.join(small_pages_dir, "gold_links.parquet")).to_pandas()
    df = gold.assign(
        src_host=gold["src_url"].map(lambda u: urlsplit(u).netloc.lower()),
        dst_host=gold["dst_url"].map(lambda u: urlsplit(u).netloc.lower()),
        path=gold["dst_url"].map(lambda u: urlsplit(u).path or "/"),
    )
    df = df[df["src_host"] != df["dst_host"]]
    rules = {h: parse_robots(robots_body(h, 42)) for h in set(df["dst_host"])}
    df["blocked"] = [
        not robots_allowed(rules.get(h, []), p) for h, p in zip(df["dst_host"], df["path"])
    ]
    want = (
        df.groupby("dst_host")
        .agg(n_links=("path", "size"), n_blocked=("blocked", "sum"))
        .reset_index()
        .sort_values("dst_host")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"n_links": "int64", "n_blocked": "int64"}),
        want.astype({"n_links": "int64", "n_blocked": "int64"}),
    )
    # the planted rules actually bite: some host has blocked links, none
    # blocks everything (the Allow carve-outs and allow-all hosts exist)
    assert got["n_blocked"].sum() > 0
    assert (got["n_blocked"] < got["n_links"]).all()


def test_rendezvous_movement_invariant():
    """Consistent-hashing guarantee: growing 8 → 9 shards moves documents
    ONLY to the new shard (off-diagonal ⇒ new_shard == 8), and the moved
    fraction is near the expected 1/9."""
    from ner_extractor_ray.pipelines.queries import q_rendezvous_shards

    df = q_rendezvous_shards("/root/testdata/sf0.001").to_pandas()
    moved = df[df["old_shard"] != df["new_shard"]]
    assert (moved["new_shard"] == 8).all()
    frac = moved["n_docs"].sum() / df["n_docs"].sum()
    assert 0.03 < frac < 0.25  # E = 1/9 ≈ 0.11; 500 docs → ~6σ bounds


def test_host_pagerank_deterministic_and_skew(small_pages_dir):
    from ner_extractor_ray.functions.weblinks import host_pagerank
    from ner_extractor_ray.pipelines.kg import pages_dataset

    a = host_pagerank(pages_dataset(small_pages_dir), n_iters=2).to_pandas()
    b = host_pagerank(pages_dataset(small_pages_dir), n_iters=2).to_pandas()
    key = ["host", "pr"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True)[key],
        b.sort_values(key).reset_index(drop=True)[key],
    )
    gold = pq.read_table(os.path.join(small_pages_dir, "gold_links.parquet")).to_pandas()
    hosts = set(gold["src_url"].map(lambda u: urlsplit(u).netloc.lower())) | set(
        gold["dst_url"].map(lambda u: urlsplit(u).netloc.lower())
    )
    # graph nodes = hosts on at least one cross-host edge
    cross = _expected_host_graph(gold)
    want_hosts = set(cross["src_host"]) | set(cross["dst_host"])
    assert set(a["host"]) == want_hosts <= hosts
    assert (a["pr"] > 0).all()
    # head hosts should out-rank the tail (planted 1/k domain skew)
    top = a.sort_values("pr", ascending=False)["host"].iloc[0]
    inmass = cross.groupby("dst_host")["n_links"].sum()
    assert inmass.get(top, 0) >= inmass.median()


def test_robots_parser_multi_agent_group():
    """RFC 9309 §2.2.1: consecutive User-agent lines share ONE rule block —
    'User-agent: *' then 'User-agent: foo' then rules applies the rules to
    BOTH, while a UA line AFTER rules starts a fresh group."""
    from ner_extractor_ray.functions.weblinks import parse_robots

    multi = (
        "User-agent: *\n"
        "User-agent: foo\n"
        "Disallow: /shared\n"
        "User-agent: bar\n"
        "Disallow: /bar-only\n"
    )
    assert parse_robots(multi) == [(False, "/shared")]
    # star group LAST in the header block — order inside the header is free
    multi2 = "User-agent: foo\nUser-agent: *\nAllow: /ok\nDisallow: /no\n"
    assert parse_robots(multi2) == [(True, "/ok"), (False, "/no")]
    # unknown directives neither join rules to a closed group nor end the
    # header block
    with_noise = (
        "Sitemap: https://x.example/sitemap.xml\n"
        "User-agent: *\n"
        "Crawl-delay: 5\n"
        "Disallow: /a\n"
    )
    assert parse_robots(with_noise) == [(False, "/a")]


def test_robots_frontier_filter_join_path_matches_broadcast(small_pages_dir):
    """broadcast_limit=0 forces the partitioned hash-join rules path; both
    physical plans must agree exactly (the scale-gate contract)."""
    import ray.data as rd

    from ner_extractor_ray.functions.weblinks import robots_frontier_filter
    from ner_extractor_ray.pipelines.kg import pages_dataset
    from ner_extractor_ray.sources.pages import write_robots

    rpath = write_robots(small_pages_dir + "_robots_gate", seed=42)

    def run(limit):
        return (
            robots_frontier_filter(
                pages_dataset(small_pages_dir), rd.read_parquet(rpath),
                broadcast_limit=limit)
            .to_pandas()
            .sort_values("dst_host")
            .reset_index(drop=True)
            .astype({"n_links": "int64", "n_blocked": "int64"})
        )

    bc, joined = run(1_000_000), run(0)
    pd.testing.assert_frame_equal(bc, joined)
    assert bc["n_blocked"].sum() > 0


def test_update_link_graph_rejects_in_place_and_never_noops(small_pages_dir, tmp_path):
    """ADVICE r3: merging into a directory that already holds a completed
    host_graph must NOT silently resume-skip every partition — rerunning the
    merge into the same out_dir rewrites it, and out_dir == table_dir is
    rejected outright."""
    import glob

    import pytest as _pytest

    from ner_extractor_ray.functions.weblinks import (
        update_link_graph,
        write_link_graph,
    )
    from ner_extractor_ray.pipelines.kg import pages_dataset
    from ner_extractor_ray.sources.pages import generate_pages

    a_dir, b_dir = str(tmp_path / "crawl_a"), str(tmp_path / "crawl_b")
    for d, start in ((a_dir, 0), (b_dir, 150)):
        os.makedirs(d)
        tbl, _ = generate_pages(150, seed=42, start_index=start)
        pq.write_table(tbl, os.path.join(d, "pages-0000.parquet"))

    out_a = str(tmp_path / "graph_a")
    write_link_graph(pages_dataset(a_dir), out_a, n_partitions=4)

    with _pytest.raises(ValueError, match="in-place"):
        update_link_graph(out_a, pages_dataset(b_dir), out_a, n_partitions=4)

    def read_graph(d):
        files = sorted(glob.glob(os.path.join(d, "host_graph", "part=*/*.parquet")))
        return (
            pa.concat_tables([pq.read_table(f) for f in files])
            .to_pandas()[["src_host", "dst_host", "n_links"]]
            .sort_values(["src_host", "dst_host"])
            .reset_index(drop=True)
        )

    out_ab = str(tmp_path / "graph_ab")
    update_link_graph(out_a, pages_dataset(b_dir), out_ab, n_partitions=4)
    first = read_graph(out_ab)
    # rerun into the SAME completed out_dir: before the fix this was a
    # silent no-op (resume filtered all partitions); now it rewrites
    update_link_graph(out_a, pages_dataset(b_dir), out_ab, n_partitions=4)
    second = read_graph(out_ab)
    pd.testing.assert_frame_equal(first, second)
    assert int(second["n_links"].sum()) > int(read_graph(out_a)["n_links"].sum())


def test_extract_links_adversarial_shapes():
    """Round-4 adversarial sweep of the regex extractor: uppercase tags,
    entity-encoded hrefs, whitespace around '=', multiline anchors, invalid
    utf-8 bytes (crash-safety), and the two DOCUMENTED divergences behaving
    exactly as documented (nested <a>; '>' inside a quoted attribute before
    href)."""
    from ner_extractor_ray.functions.weblinks import extract_links

    base = "https://h.example.com/article-1"
    # uppercase tag + attribute names are legal HTML
    assert extract_links(b"<A HREF='https://a.b/up'>U</A>", base) == [
        ("https://a.b/up", "U")]
    # entity-encoded ampersand inside href must unescape BEFORE resolution
    assert extract_links(
        b"<a href='https://a.b/p?x=1&amp;y=2'>q</a>", base
    ) == [("https://a.b/p?x=1&y=2", "q")]
    # whitespace around '=' and around the value
    assert extract_links(
        b"<a href = 'https://a.b/s'>s</a>", base
    ) == [("https://a.b/s", "s")]
    # multiline anchor spanning elements and newlines
    assert extract_links(
        b"<a href='https://a.b/m'>\n  line1 <i>em</i>\n  line2\n</a>", base
    ) == [("https://a.b/m", "line1 em line2")]
    # invalid utf-8 must never crash (errors='replace' path)
    assert extract_links(b"\xff\xfe<a href='https://a.b/z'>z</a>\xff", base) == [
        ("https://a.b/z", "z")]
    # documented divergence 1: nested <a> yields ONE link to the outer href
    got = extract_links(
        b"<a href='https://a.b/outer'>o <a href='https://a.b/inner'>i</a></a>",
        base)
    assert got[0][0] == "https://a.b/outer" and len(got) >= 1
    # round-5 fix: '>' inside a QUOTED attribute value no longer terminates
    # the tag scan — the anchor is extracted, on either side of href
    assert extract_links(
        b'<a title="a>b" href="https://a.b/t">t</a>', base
    ) == [("https://a.b/t", "t")]
    assert extract_links(
        b'<a href="https://a.b/t2" data-x="c>d">t2</a>', base
    ) == [("https://a.b/t2", "t2")]
    # protocol-relative href inherits the base scheme
    assert extract_links(b"<a href='//cdn.example/x'>c</a>", base) == [
        ("https://cdn.example/x", "c")]


def test_host_pagerank_weighted_orders_by_endorsement(small_pages_dir):
    """Weighted host pagerank must run over the real crawl and respond to
    link multiplicity: total mass conserved within rounding, every score
    positive, and the result deterministic across two runs."""
    import pandas as pd

    from ner_extractor_ray.functions.weblinks import host_pagerank
    from ner_extractor_ray.pipelines.kg import pages_dataset

    a = (host_pagerank(pages_dataset(small_pages_dir), weighted=True)
         .to_pandas().sort_values("host").reset_index(drop=True))
    b = (host_pagerank(pages_dataset(small_pages_dir), weighted=True)
         .to_pandas().sort_values("host").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert (a["pr"] > 0).all()
    # floor-division loses < 1 unit per node per round: mass stays within
    # n_nodes × n_rounds of the scale
    assert abs(int(a["pr"].sum()) - 10**12) < len(a) * 4 * 100
