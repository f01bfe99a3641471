"""A publicwww.com-style source-code search engine.

The paper seeds its crawler by searching publicwww.com for 19 keywords (15
ad-network SDK snippets + 4 generic push-API strings) and keeping the HTTPS
results. We index the generated websites' page sources the same way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.util.urls import Url
from repro.webenv.website import Website


class CodeSearchEngine:
    """Substring search over indexed page sources, HTTPS results only."""

    def __init__(self):
        self._pages: Dict[str, Website] = {}

    def index(self, site: Website) -> None:
        """Add (or replace) one site in the index, keyed by URL."""
        self._pages[str(site.url)] = site

    def index_many(self, sites: Iterable[Website]) -> None:
        for site in sites:
            self.index(site)

    def __len__(self) -> int:
        return len(self._pages)

    def search(self, keyword: str, https_only: bool = True) -> List[Url]:
        """URLs of indexed pages whose source contains ``keyword``.

        Results are deterministic (sorted by URL string) and are the
        indexed sites' own ``url`` objects.
        """
        if not keyword:
            raise ValueError("empty search keyword")
        hits = []
        for url_text, site in self._pages.items():
            if keyword in site.page_source:
                if https_only and not site.url.is_secure:
                    continue
                hits.append(url_text)
        return [self._pages[u].url for u in sorted(hits)]

    def search_all(self, keywords: Iterable[str]) -> Dict[str, List[Url]]:
        """Keyword -> result URLs for each keyword."""
        return {kw: self.search(kw) for kw in keywords}

    @staticmethod
    def distinct_urls(results: Dict[str, List[Url]]) -> List[Url]:
        """Union of all result lists, deduplicated, order-stable."""
        seen: Set[str] = set()
        merged: List[Url] = []
        for kw in results:
            for url in results[kw]:
                text = str(url)
                if text not in seen:
                    seen.add(text)
                    merged.append(url)
        return merged
