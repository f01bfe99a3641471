"""Microbenchmarks for the analysis primitives.

Not a paper table — these pin the performance of the hot paths (distance
computation, NN-chain agglomeration, silhouette selection) so future
changes can't silently regress the pipeline's scalability.
"""

import numpy as np
import pytest

from repro.core.clustering import AgglomerativeClusterer, evaluate_cuts
from repro.core.distance import compute_distances
from repro.core.silhouette import average_silhouette
from repro.core.textsim import SoftCosineModel
from repro.core.urlsim import url_path_distance_matrix


@pytest.fixture(scope="module")
def corpus(bench_dataset):
    return bench_dataset.valid_records[:600]


@pytest.fixture(scope="module")
def distances(corpus):
    return compute_distances(corpus).total


def test_perf_distance_matrix(benchmark, corpus):
    result = benchmark(compute_distances, corpus)
    assert result.total.shape == (len(corpus), len(corpus))


def test_perf_text_model_fit(benchmark, corpus):
    from repro.core.features import extract_all

    docs = [list(f.text_tokens) for f in extract_all(corpus)]

    def fit():
        return SoftCosineModel(dimensions=48).fit(docs)

    model = benchmark(fit)
    assert model.embeddings.shape[0] == len(model.vocabulary)


def test_perf_url_distance(benchmark, corpus):
    from repro.core.features import extract_all

    sets = [f.url_tokens for f in extract_all(corpus)]
    matrix = benchmark(url_path_distance_matrix, sets)
    assert matrix.shape == (len(sets), len(sets))


def test_perf_nn_chain(benchmark, distances):
    clusterer = AgglomerativeClusterer()
    linkage = benchmark(clusterer.fit, distances)
    assert len(linkage.merges) == distances.shape[0] - 1


def test_perf_cut_selection(benchmark, distances):
    linkage = AgglomerativeClusterer().fit(distances)
    selection = benchmark(evaluate_cuts, linkage, distances)
    assert selection.labels.shape[0] == distances.shape[0]


def test_perf_silhouette(benchmark, distances):
    linkage = AgglomerativeClusterer().fit(distances)
    labels = linkage.cut(0.15)
    score = benchmark(average_silhouette, distances, labels)
    assert -1.0 <= score <= 1.0
