"""The incremental silhouette sweep against the rebuild-from-scratch oracles."""

import functools

import numpy as np
import pytest

from repro.core.clustering import (
    AgglomerativeClusterer,
    CutSelection,
    cut_schedule,
    evaluate_cuts,
    silhouette_rows,
    silhouette_tile,
)
from repro.core.distance import compute_distances
from repro.core.silhouette import average_silhouette
from repro.perf import ExecutionPlan


def random_linkage(rng, n):
    dist = rng.random((n, n))
    dist = (dist + dist.T) / 2
    np.fill_diagonal(dist, 0.0)
    return AgglomerativeClusterer().fit(dist), dist


def evaluate_cuts_oracle(linkage, distances, candidates):
    """The pre-sweep selection: rebuild labels + score per candidate."""
    best = (0.0, -np.inf)
    found = False
    for threshold in [float(t) for t in candidates]:
        labels = linkage.cut(threshold)
        score = average_silhouette(distances, labels)
        if score > best[1]:
            best = (threshold, score)
            found = True
    assert found
    return best


def sweep_scores(linkage, distances, thresholds):
    """Average silhouette per threshold: one schedule, one row block."""
    schedule = cut_schedule(linkage, thresholds)
    return [float(row.mean()) for row in silhouette_rows(schedule, 0, distances)]


class TestIncrementalSilhouetteSweep:
    def test_scores_match_rebuilt_silhouette(self):
        rng = np.random.default_rng(33)
        for trial in range(5):
            n = int(rng.integers(8, 50))
            linkage, dist = random_linkage(rng, n)
            heights = linkage.heights()
            quantiles = np.linspace(0.05, 0.95, 9)
            thresholds = sorted(set(float(np.quantile(heights, q)) for q in quantiles))
            scores = sweep_scores(linkage, dist, thresholds)
            for t, got in zip(thresholds, scores):
                expected = average_silhouette(dist, linkage.cut(t))
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_degenerate_cuts_score_minus_one(self):
        rng = np.random.default_rng(2)
        linkage, dist = random_linkage(rng, 12)
        # Every point its own cluster, then everything merged.
        assert sweep_scores(linkage, dist, [-1.0, 2.0]) == [-1.0, -1.0]

    def test_rejects_decreasing_thresholds(self):
        rng = np.random.default_rng(5)
        linkage, _ = random_linkage(rng, 10)
        for thresholds in ([0.6, 0.1], [0.3, 0.3]):
            with pytest.raises(ValueError, match="ascending"):
                cut_schedule(linkage, thresholds)

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(6)
        linkage, dist = random_linkage(rng, 10)
        schedule = cut_schedule(linkage, [0.5])
        with pytest.raises(ValueError):
            silhouette_rows(schedule, 0, dist[:8, :8])
        with pytest.raises(ValueError):
            silhouette_rows(schedule, 4, dist[:8])  # rows 4..12 of 10
        with pytest.raises(ValueError):
            evaluate_cuts(linkage, dist[:8, :8])


class TestRowTiling:
    """Streamed blocked rows score bit for bit like one dense block."""

    @pytest.fixture(scope="class")
    def corpus(self, small_dataset):
        records = small_dataset.valid_records[:120]
        dense = compute_distances(records)
        sparse = compute_distances(records, storage="sparse", blocking="url")
        linkage = AgglomerativeClusterer().fit(dense.total)
        return dense, sparse, linkage

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tile_size", [1, 7, 64])
    def test_streamed_tiles_match_one_block(self, corpus, tile_size, workers):
        dense, sparse, linkage = corpus
        heights = linkage.heights()
        thresholds = sorted(
            set(float(np.quantile(heights, q)) for q in (0.1, 0.4, 0.7))
        )
        schedule = cut_schedule(linkage, thresholds)
        one_block = silhouette_rows(schedule, 0, dense.total)
        plan = ExecutionPlan(workers=workers, tile_size=tile_size)
        kernel = functools.partial(silhouette_tile, schedule)
        tiles = plan.tiles(sparse.size)
        streamed = np.concatenate(
            list(plan.stream(kernel, sparse.operands, tiles)), axis=1
        )
        assert streamed.tobytes() == one_block.tobytes()

        want = evaluate_cuts(linkage, dense.total, candidates=thresholds)
        got = evaluate_cuts(
            linkage, sparse.operands, plan=plan, candidates=thresholds
        )
        assert got.threshold == want.threshold
        assert got.score == want.score
        np.testing.assert_array_equal(got.labels, want.labels)


class TestEvaluateCuts:
    def test_matches_rebuild_per_candidate_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(5):
            n = int(rng.integers(10, 60))
            linkage, dist = random_linkage(rng, n)
            heights = linkage.heights()
            candidates = [
                float(np.quantile(heights, q))
                for q in np.linspace(0.1, 0.9, 7)
            ]
            selection = evaluate_cuts(linkage, dist, candidates=candidates)
            threshold, score = evaluate_cuts_oracle(linkage, dist, candidates)
            assert selection.threshold == threshold
            assert selection.score == pytest.approx(score, rel=1e-9)
            np.testing.assert_array_equal(
                selection.labels, linkage.cut(threshold)
            )
            assert selection.n_candidates == len(candidates)

    def test_duplicate_candidates_scored_once_keep_first_win(self):
        rng = np.random.default_rng(7)
        linkage, dist = random_linkage(rng, 20)
        median = float(np.median(linkage.heights()))
        selection = evaluate_cuts(
            linkage, dist, candidates=[median, median, median]
        )
        assert isinstance(selection, CutSelection)
        assert selection.threshold == median
        assert selection.n_candidates == 3

    def test_empty_linkage(self):
        linkage = AgglomerativeClusterer().fit(np.zeros((1, 1)))
        selection = evaluate_cuts(linkage, np.zeros((1, 1)))
        assert selection.n_candidates == 0
