"""Blocked nearest-corpus-row search vs. the dense search.

:func:`repro.perf.nearest_corpus_rows` is the one nearest-campaign
assignment path: ``bound=None`` is the dense query-vs-corpus argmin that
serving answers with, a bound is the candidate-blocked search incremental
mining assigns with.  Their contract: for every query whose dense minimum
is below the bound, the blocked search returns the same column (ties to
the lowest index) and the bitwise-same distance; ``inf`` / ``-1`` appear
only where the dense minimum is at or above the bound.  It must hold for
any tile size and worker count.
"""

import numpy as np
import pytest

from repro.core.distance import corpus_operands, query_operands
from repro.core.features import extract_all
from repro.core.textsim import SoftCosineModel
from repro.perf import (
    DEFAULT_SPARSE_BOUND,
    ExecutionPlan,
    Tile,
    nearest_corpus_rows,
    query_distance_tile,
)

N_CORPUS = 120
N_QUERIES = 40


def build_operands(corpus_records, query_records):
    corpus_features = extract_all(corpus_records)
    texts = [list(f.text_tokens) for f in corpus_features]
    model = SoftCosineModel().fit(texts)
    corpus, vocabulary = corpus_operands(
        model, texts, [f.url_tokens for f in corpus_features]
    )
    query_features = extract_all(query_records)
    return query_operands(
        model,
        corpus,
        vocabulary,
        [f.text_tokens for f in query_features],
        [f.url_tokens for f in query_features],
    )


@pytest.fixture(scope="module")
def operands(small_dataset):
    valid = small_dataset.valid_records
    assert len(valid) >= N_CORPUS + N_QUERIES
    # Held-out queries plus a few exact corpus members (distance ~0).
    queries = list(valid[N_CORPUS:N_CORPUS + N_QUERIES]) + list(valid[:8])
    return build_operands(valid[:N_CORPUS], queries)


@pytest.fixture(scope="module")
def tie_operands(small_dataset):
    # Every corpus record appears twice (rows i and i + half): each query
    # taken from the corpus ties exactly between the two copies.
    half = list(small_dataset.valid_records[:40])
    return build_operands(half + half, half[:16])


def full_matrix(operands):
    return query_distance_tile(operands, Tile(0, operands.corpus.n))


def assert_blocked_matches_dense(blocked, dense, matrix):
    bound = blocked.bound
    below = dense.distances < bound
    assert np.array_equal(blocked.columns[below], dense.columns[below])
    assert (
        blocked.distances[below].tobytes() == dense.distances[below].tobytes()
    )
    missing = blocked.columns == -1
    assert np.all(np.isinf(blocked.distances[missing]))
    assert np.all(dense.distances[missing] >= bound)
    # Above the bound the blocked search may still score some candidate;
    # what it reports is then an exact matrix entry, never below the
    # dense minimum.
    found = ~missing
    rows = np.flatnonzero(found)
    assert (
        blocked.distances[found].tobytes()
        == matrix[rows, blocked.columns[found]].tobytes()
    )
    assert np.all(blocked.distances[found] >= dense.distances[found])


class TestDenseSearch:
    def test_is_the_row_argmin(self, operands):
        matrix = full_matrix(operands)
        dense = nearest_corpus_rows(operands, ExecutionPlan())
        assert dense.bound is None
        assert np.array_equal(dense.columns, matrix.argmin(axis=1))
        assert (
            dense.distances.tobytes() == matrix.min(axis=1).tobytes()
        )
        assert dense.n_candidates == dense.n_scored == 0

    @pytest.mark.parametrize("tile_size", [1, 7, 64])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tile_size_and_workers_are_invisible(
        self, operands, tile_size, workers
    ):
        reference = nearest_corpus_rows(operands, ExecutionPlan())
        got = nearest_corpus_rows(
            operands, ExecutionPlan(workers=workers, tile_size=tile_size)
        )
        assert np.array_equal(got.columns, reference.columns)
        assert got.distances.tobytes() == reference.distances.tobytes()


class TestBlockedSearch:
    @pytest.mark.parametrize("tile_size", [1, 7, 64])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_dense_below_the_bound(
        self, operands, tile_size, workers
    ):
        dense = nearest_corpus_rows(operands, ExecutionPlan())
        blocked = nearest_corpus_rows(
            operands,
            ExecutionPlan(workers=workers, tile_size=tile_size),
            bound=DEFAULT_SPARSE_BOUND,
        )
        assert blocked.bound == DEFAULT_SPARSE_BOUND
        assert_blocked_matches_dense(blocked, dense, full_matrix(operands))
        # The corpus members among the queries are found (a query is never
        # assumed to be a corpus row, so "0" is only up to rounding).
        assert np.all(blocked.distances[-8:] < 1e-12)

    def test_both_regimes_are_exercised(self, operands):
        # A tight bound leaves some queries without a certified match, so
        # the inf / -1 branch of the contract is checked too.
        dense = nearest_corpus_rows(operands, ExecutionPlan())
        blocked = nearest_corpus_rows(
            operands, ExecutionPlan(tile_size=7), bound=0.2
        )
        assert np.any(dense.distances < 0.2)
        assert np.any(blocked.columns == -1)
        assert_blocked_matches_dense(blocked, dense, full_matrix(operands))

    def test_counts_are_tiling_invariant(self, operands):
        counts = {
            (found.n_candidates, found.n_scored)
            for found in (
                nearest_corpus_rows(
                    operands, ExecutionPlan(tile_size=tile_size),
                    bound=DEFAULT_SPARSE_BOUND,
                )
                for tile_size in (1, 7, 64)
            )
        }
        assert len(counts) == 1
        n_candidates, n_scored = counts.pop()
        assert 0 < n_scored <= n_candidates

    @pytest.mark.parametrize("tile_size", [1, 7, 64])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_exact_ties_go_to_the_lowest_index(
        self, tie_operands, tile_size, workers
    ):
        plan = ExecutionPlan(workers=workers, tile_size=tile_size)
        dense = nearest_corpus_rows(tie_operands, plan)
        blocked = nearest_corpus_rows(
            tie_operands, plan, bound=DEFAULT_SPARSE_BOUND
        )
        half = tie_operands.corpus.n // 2
        matrix = full_matrix(tie_operands)
        assert matrix[:, :half].tobytes() == matrix[:, half:].tobytes()
        for found in (dense, blocked):
            assert np.all(found.distances < 1e-12)
            assert np.all(found.columns < half)
        assert np.array_equal(blocked.columns, dense.columns)
