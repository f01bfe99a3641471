"""Tests for websites, the code-search engine, and the popularity index."""

import pytest

from repro.util.rng import RngFactory
from repro.webenv.alexa import TOP_1M, PopularityIndex
from repro.webenv.search import CodeSearchEngine
from repro.util.urls import Url
from repro.webenv.website import (
    Website,
    alert_page_source,
    plain_page_source,
    publisher_page_source,
)


def make_site(host="www.a.com", **kwargs):
    defaults = dict(
        url=Url(host=host),
        kind="plain",
        page_source=plain_page_source("keyword"),
        seed_keyword="row",
    )
    defaults.update(kwargs)
    return Website(**defaults)


class TestWebsite:
    def test_publisher_requires_networks(self):
        with pytest.raises(ValueError):
            make_site(kind="publisher")

    def test_alert_requires_family(self):
        with pytest.raises(ValueError):
            make_site(kind="alert", page_source=alert_page_source("k"))

    def test_http_origin_cannot_prompt(self):
        with pytest.raises(ValueError):
            make_site(
                url=Url(host="a.com", scheme="http"), requests_permission=True
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_site(kind="weird")

    def test_can_push(self):
        publisher = make_site(
            kind="publisher",
            network_names=("Ad-Maven",),
            page_source=publisher_page_source(("m",)),
            requests_permission=True,
        )
        assert publisher.can_push
        assert not make_site().can_push

    def test_opt_in_rate_bounds(self):
        with pytest.raises(ValueError):
            make_site(opt_in_rate=1.5)


class TestPageSources:
    def test_publisher_embeds_markers(self):
        source = publisher_page_source(("cdn.net.com/sdk/kw.js", "inline_kw"))
        assert "cdn.net.com/sdk/kw.js" in source
        assert "inline_kw" in source

    def test_alert_embeds_only_given_keyword(self):
        source = alert_page_source("pushmanagersubscribe")
        assert "pushmanagersubscribe" in source
        assert "NotificationrequestPermission" not in source

    def test_plain_mentions_keyword(self):
        assert "kw123" in plain_page_source("kw123")


class TestCodeSearchEngine:
    def test_finds_substring(self):
        engine = CodeSearchEngine()
        engine.index(make_site(page_source="<html>magic_token</html>"))
        assert engine.search("magic_token") == [Url(host="www.a.com")]

    def test_https_only(self):
        engine = CodeSearchEngine()
        engine.index(make_site(
            host="plain.com",
            url=Url(host="plain.com", scheme="http"),
            page_source="token",
        ))
        assert engine.search("token") == []
        assert engine.search("token", https_only=False) != []

    def test_no_match(self):
        engine = CodeSearchEngine()
        engine.index(make_site())
        assert engine.search("missing") == []

    def test_empty_keyword_raises(self):
        with pytest.raises(ValueError):
            CodeSearchEngine().search("")

    def test_results_sorted(self):
        engine = CodeSearchEngine()
        for host in ("www.z.com", "www.b.com", "www.m.com"):
            engine.index(make_site(host=host, url=Url(host=host), page_source="tok"))
        hosts = [u.host for u in engine.search("tok")]
        assert hosts == sorted(hosts)

    def test_results_are_indexed_site_urls(self):
        engine = CodeSearchEngine()
        sites = [
            make_site(host=host, url=Url(host=host), page_source="tok")
            for host in ("www.z.com", "www.b.com")
        ]
        engine.index_many(sites)
        hits = engine.search("tok")
        assert hits == [sites[1].url, sites[0].url]
        assert all(
            any(hit is site.url for site in sites) for hit in hits
        )

    def test_distinct_urls_union(self):
        engine = CodeSearchEngine()
        engine.index(make_site(page_source="both one two"))
        results = engine.search_all(["one", "two"])
        merged = CodeSearchEngine.distinct_urls(results)
        assert len(merged) == 1

    def test_reindex_replaces(self):
        engine = CodeSearchEngine()
        engine.index(make_site(page_source="old"))
        engine.index(make_site(page_source="new"))
        assert len(engine) == 1
        assert engine.search("old") == []


class TestPopularityIndex:
    def test_rank_is_stable(self):
        index = PopularityIndex(RngFactory(1).stream("alexa"), ranked_fraction=1.0)
        assert index.assign("x.com") == index.assign("x.com")

    def test_ranked_fraction_zero(self):
        index = PopularityIndex(RngFactory(1).stream("alexa"), ranked_fraction=0.0)
        assert index.assign("x.com") is None
        assert index.rank_of("x.com") is None

    def test_ranked_fraction_close(self):
        index = PopularityIndex(RngFactory(1).stream("alexa"), ranked_fraction=0.36)
        domains = [f"d{i}.com" for i in range(2000)]
        ranked = sum(1 for d in domains if index.assign(d) is not None)
        assert abs(ranked / 2000 - 0.36) < 0.05

    def test_ranks_in_range(self):
        index = PopularityIndex(RngFactory(1).stream("alexa"), ranked_fraction=1.0)
        for i in range(200):
            rank = index.assign(f"d{i}.com")
            assert 1 <= rank <= TOP_1M

    def test_bucket_breakdown_sums(self):
        index = PopularityIndex(RngFactory(1).stream("alexa"), ranked_fraction=0.5)
        domains = [f"d{i}.com" for i in range(500)]
        for d in domains:
            index.assign(d)
        rows = index.bucket_breakdown(domains)
        assert sum(count for _, count in rows) == 500
        assert rows[-1][0] == "unranked"

    def test_tail_heavier_than_head(self):
        index = PopularityIndex(RngFactory(1).stream("alexa"), ranked_fraction=1.0)
        domains = [f"d{i}.com" for i in range(3000)]
        for d in domains:
            index.assign(d)
        rows = dict(index.bucket_breakdown(domains))
        assert rows["100K - 1M"] > rows["top 1K"]

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            PopularityIndex(RngFactory(1).stream("a"), ranked_fraction=2.0)
