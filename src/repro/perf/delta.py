"""Nearest-corpus-row search: the one nearest-campaign assignment path.

Serving (``ServeCore.classify``) and incremental mining
(``IncrementalMiner.absorb``) both ask the same question of a query
batch: which existing corpus row is nearest under the exact combined
distance (ties to the lowest index), and is it within the frozen cut
threshold?  :func:`nearest_corpus_rows` answers it two ways:

* ``bound=None`` — the dense search: stream
  :func:`~repro.perf.kernels.query_distance_tile` over the corpus and take
  each query's row argmin.  Every query gets its exact nearest distance,
  however far.
* a ``bound`` — the blocked search: the same inverted-URL-token-index
  candidate enumeration and certified screens as
  :func:`~repro.perf.blocking.candidate_distance_tile`, applied to the
  ``(query, corpus)`` rectangle instead of the pairwise triangle.

The blocked exactness argument carries over unchanged: a query/corpus
pair sharing no URL token (and not both URL-empty) has ``total = (text +
1)/2 >= 0.5``, and both screens certify every dropped candidate ``total
>= bound``.  So for any assignment threshold **strictly below** ``bound``,
the blocked per-query minimum decides *assign vs. open* — and picks the
same lowest-index nearest column — exactly as the dense search would:
every entry the blocked path scores reproduces the dense kernel's scalar
operation sequence bit for bit, and every entry it skips is certified too
far to matter.  Callers must enforce ``threshold < bound``
(``repro.incremental`` refuses with ``IncrementalDriftError`` otherwise);
``tests/perf/test_delta.py`` pins the agreement against the dense search.

Tiling runs over corpus rows, exactly like the other query kernels, so
the per-tile results reduce deterministically in tile order under any
:class:`~repro.perf.plan.ExecutionPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from repro.perf.blocking import DEFAULT_SPARSE_BOUND, _SCREEN_MARGIN, _SOFT_CHUNK
from repro.perf.kernels import QueryOperands, query_distance_tile
from repro.perf.plan import ExecutionPlan, Tile


@dataclass(frozen=True)
class QueryNearest:
    """Per-query result of one :func:`nearest_corpus_rows` search.

    ``distances[i]`` is the exact combined distance from query ``i`` to
    its nearest corpus row and ``columns[i]`` that row's index, ties
    broken to the lowest index.  The blocked search (``bound`` set) only
    looks among the scored candidates: ``inf`` / ``-1`` mark a query with
    no surviving candidate — every corpus row is then certified ``>=
    bound`` — and for any assignment threshold below ``bound`` the result
    is indistinguishable from the dense search (``bound`` ``None``).
    ``n_candidates`` / ``n_scored`` count the raw enumerated and
    screen-surviving query/corpus pairs of the blocked search for gauges
    (both 0 for the dense search).
    """

    distances: np.ndarray  # (q,) float64
    columns: np.ndarray    # (q,) int64
    bound: Optional[float]
    n_candidates: int
    n_scored: int

    @property
    def n_queries(self) -> int:
        return int(self.distances.size)


def query_candidate_min_tile(
    operands: QueryOperands,
    tile: Tile,
    bound: float = DEFAULT_SPARSE_BOUND,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Blocked per-query minimum over one corpus row tile.

    Returns ``(min_vals, argmin_cols, n_raw, n_scored)``: for each query,
    the smallest exact combined distance to a scored candidate in this
    tile (``inf`` when none) and its global corpus column (``-1`` when
    none; ties to the lowest column), plus the raw and screen-surviving
    candidate counts.  Every scored entry runs the identical scalar
    sequence as :func:`~repro.perf.kernels.query_distance_tile`, so a
    scored minimum equals the dense matrix entry bit for bit; every
    skipped entry carries a certificate ``total >= bound``.  Pure and
    module-level so an :class:`~repro.perf.plan.ExecutionPlan` may ship
    it across process boundaries.
    """
    if not 0.0 < bound <= 0.5:
        raise ValueError(f"bound must be in (0, 0.5], got {bound}")
    corpus = operands.corpus
    q = operands.n_queries
    min_vals = np.full(q, np.inf, dtype=np.float64)
    argmin_cols = np.full(q, -1, dtype=np.int64)

    # Candidate enumeration, exactly as the pairwise blocking stage: the
    # sparse membership product is the inverted-index lookup, and the
    # URL-empty queries form a clique with the tile's URL-empty rows.
    member = corpus.url_member[tile.start:tile.stop]
    inter = (operands.q_url_member @ member.T).tocsr()
    rows = np.repeat(
        np.arange(q, dtype=np.int64), np.diff(inter.indptr)
    )
    cols_local = inter.indices.astype(np.int64)
    inter_vals = inter.data.astype(np.float64)

    empty_cols = np.flatnonzero(
        corpus.url_empty[tile.start:tile.stop]
    ).astype(np.int64)
    empty_qs = np.flatnonzero(operands.q_url_empty).astype(np.int64)
    if empty_qs.size and empty_cols.size:
        rows = np.concatenate([rows, np.repeat(empty_qs, empty_cols.size)])
        cols_local = np.concatenate(
            [cols_local, np.tile(empty_cols, empty_qs.size)]
        )
        inter_vals = np.concatenate(
            [inter_vals, np.zeros(empty_qs.size * empty_cols.size)]
        )
    n_raw = int(rows.size)
    if n_raw == 0:
        return min_vals, argmin_cols, 0, 0

    cols = cols_local + np.int64(tile.start)

    # URL screen in cleared-fraction form (see candidate_distance_tile):
    # url >= 2*bound certifies total >= bound; both-empty entries
    # (union == 0) always pass.
    union = operands.q_url_sizes[rows] + corpus.url_sizes[cols] - inter_vals
    keep = (
        inter_vals > (1.0 - 2.0 * bound - _SCREEN_MARGIN) * union
    ) | (union == 0.0)
    rows, cols_local, cols = rows[keep], cols_local[keep], cols[keep]
    inter_vals, union = inter_vals[keep], union[keep]

    # URL channel for the survivors — the dense query kernel's scalar
    # sequence (divide by the clamped union, subtract from 1, clip).
    url = np.where(
        inter_vals > 0,
        1.0 - (inter_vals / np.maximum(union, 1e-12)),
        0.0,
    )
    np.clip(url, 0.0, 1.0, out=url)

    # Exact bag-of-words cosine, gathered from the same (q, tile.size)
    # product the dense query kernel materializes.
    prod = np.asarray(
        (operands.q_bow_normed @ corpus.bow_normed[tile.start:tile.stop].T)
        .toarray()
    )
    cos_exact = prod[rows, cols_local]

    # Cosine screen, cleared form: sim <= blend*cos + (1-blend) bounds
    # total >= (1 - sim_ub + url) / 2 from below.
    blend = corpus.blend
    keep = blend * cos_exact > url + (
        blend - 2.0 * bound - 2.0 * _SCREEN_MARGIN
    )
    rows, cols_local, cols = rows[keep], cols_local[keep], cols[keep]
    url, cos_exact = url[keep], cos_exact[keep]
    n_scored = int(rows.size)
    if n_scored == 0:
        return min_vals, argmin_cols, n_raw, 0

    # Soft cosine for the survivors: einsum's per-entry reduction order
    # matches the dense "ik,jk->ij" product, chunked only to bound the
    # gather's transient.
    cos_soft = np.empty(rows.size, dtype=np.float64)
    for start in range(0, rows.size, _SOFT_CHUNK):
        stop = min(start + _SOFT_CHUNK, rows.size)
        cos_soft[start:stop] = np.einsum(
            "ik,ik->i",
            operands.q_doc_emb[rows[start:stop]],
            corpus.doc_emb[cols[start:stop]],
        )
    fallback = operands.q_zero_rows[rows] | corpus.zero_rows[cols]
    cos_soft[fallback] = cos_exact[fallback]

    sim = blend * cos_exact + (1.0 - blend) * cos_soft
    np.clip(sim, 0.0, 1.0, out=sim)
    text = 1.0 - sim
    np.clip(text, 0.0, 1.0, out=text)
    total = (text + url) / 2.0

    # Per-query minimum with ties to the lowest column: group by query,
    # then ascending distance, then ascending column, and keep each
    # query's first entry.
    order = np.lexsort((cols, total, rows))
    firsts = np.unique(rows[order], return_index=True)
    min_vals[firsts[0]] = total[order][firsts[1]]
    argmin_cols[firsts[0]] = cols[order][firsts[1]]
    return min_vals, argmin_cols, n_raw, n_scored


def nearest_corpus_rows(
    operands: QueryOperands,
    plan: ExecutionPlan,
    bound: Optional[float] = None,
) -> QueryNearest:
    """Nearest corpus row for every query, dense or blocked.

    ``bound=None`` streams :func:`~repro.perf.kernels.query_distance_tile`
    over the plan's corpus tiles and takes each query's row argmin
    (``np.argmin``: ties to the lowest column).  With a ``bound`` it
    streams :func:`query_candidate_min_tile` instead and reduces the
    per-tile minima in tile order with a strict ``<`` — so cross-tile ties
    resolve to the earlier tile, i.e. the lowest corpus column, matching
    the dense convention.  Bit-identical for any tile size or worker
    count.
    """
    n = operands.corpus.n
    q = operands.n_queries
    if bound is None:
        blocks = plan.run(query_distance_tile, operands, plan.tiles(n))
        distances = np.concatenate(blocks, axis=1)
        columns = distances.argmin(axis=1).astype(np.int64)
        return QueryNearest(
            distances=distances[np.arange(q), columns],
            columns=columns,
            bound=None,
            n_candidates=0,
            n_scored=0,
        )
    kernel = partial(query_candidate_min_tile, bound=bound)
    best = np.full(q, np.inf, dtype=np.float64)
    best_cols = np.full(q, -1, dtype=np.int64)
    n_candidates = 0
    n_scored = 0
    for min_vals, argmin_cols, raw, scored in plan.stream(
        kernel, operands, plan.tiles(n)
    ):
        better = min_vals < best
        best[better] = min_vals[better]
        best_cols[better] = argmin_cols[better]
        n_candidates += raw
        n_scored += scored
    return QueryNearest(
        distances=best,
        columns=best_cols,
        bound=bound,
        n_candidates=n_candidates,
        n_scored=n_scored,
    )
