"""Combined WPN distance: mean of text and URL-path distances (section 5.1.1).

The pairwise matrices are assembled tile by tile from the blocked kernels
in :mod:`repro.perf.kernels` under an injectable
:class:`~repro.perf.ExecutionPlan` (serial by default, process-parallel
opt-in) — results are bit-identical for any tile size or worker count.
Dense float64 is the default.  ``storage="sparse"`` (paired with
``blocking="url"``) keeps only the entries surviving the blocking
stage's certified screens — every absent pair provably has total
distance >= the blocking bound (see :mod:`repro.perf.blocking`) — and
stores them bitwise equal to the dense kernels' output.

The kernel operands come from :func:`corpus_operands` (a corpus) and
:func:`query_operands` (a query batch against a corpus); batch mining,
serving and incremental mining all build them here, so the three agree
on the URL vocabulary and every row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.core.features import WpnFeatures, extract_all
from repro.core.records import WpnRecord
from repro.core.textsim import SoftCosineModel
from repro.core.urlsim import url_membership_matrix, url_token_vocabulary
from repro.perf import (
    DEFAULT_SPARSE_BOUND,
    BlockingStats,
    ExecutionPlan,
    PairwiseOperands,
    QueryOperands,
    SparsePairwise,
    candidate_distance_tile,
    combined_distance_tile,
    component_labels,
    prune_cross_component,
)

STORAGES = ("dense", "sparse")
BLOCKINGS = ("none", "url")

Matrix = Union[np.ndarray, SparsePairwise]


@dataclass
class DistanceMatrices:
    """The pairwise matrices the clustering stage consumes.

    In the default dense storage, ``text``, ``url``, and ``total`` are all
    square float64 matrices. In sparse storage all three are
    :class:`~repro.perf.SparsePairwise` holding
    only the blocking stage's certified entries (absent pairs provably
    have total >= the blocking bound), sharing one index structure.
    """

    text: Matrix
    url: Matrix
    total: Matrix
    #: Sparse storage only: the kernel operands the matrices were computed
    #: from, retained so downstream stages (cut scoring) can recompute any
    #: full distance tile bit-identically instead of densifying.
    operands: Optional[PairwiseOperands] = None
    #: Sparse storage only: blocking-stage accounting for tracer gauges.
    blocking_stats: Optional[BlockingStats] = None

    def __post_init__(self):
        total = self.total
        if not isinstance(total, SparsePairwise) and (
            total.ndim != 2 or total.shape[0] != total.shape[1]
        ):
            raise ValueError("total distance matrix must be square")
        n = self.size
        for name in ("text", "url"):
            matrix = getattr(self, name)
            if isinstance(total, SparsePairwise):
                ok = isinstance(matrix, SparsePairwise) and matrix.n == n
            else:
                ok = isinstance(matrix, np.ndarray) and matrix.shape == (n, n)
            if not ok:
                raise ValueError(
                    f"{name} must be stored like total, over n={n}"
                )

    @property
    def size(self) -> int:
        if isinstance(self.total, SparsePairwise):
            return self.total.n
        return self.total.shape[0]

    @property
    def storage(self) -> str:
        """``"dense"`` or ``"sparse"`` from ``total``."""
        return "sparse" if isinstance(self.total, SparsePairwise) else "dense"

    @property
    def component_bytes(self) -> int:
        """Bytes held by every materialized matrix (text + url + total)."""
        total = 0
        for m in (self.text, self.url, self.total):
            if isinstance(m, SparsePairwise):
                # The three sparse components share one index structure;
                # count it once (on total) and the values everywhere.
                total += (
                    m.component_bytes if m is self.total else int(m.data.nbytes)
                )
            else:
                total += int(m.nbytes)
        return total

    def total_square(self) -> np.ndarray:
        """The combined distance as a square matrix.

        Dense storage returns ``total`` as-is (no copy).  Sparse storage
        refuses: non-candidate entries are unknown (only bounded below),
        so there is no dense matrix to return — oracle code that really
        wants the candidate picture uses ``total.to_square(...)``.
        """
        if isinstance(self.total, SparsePairwise):
            raise TypeError(
                "sparse storage cannot densify: absent distances are "
                "unknown (>= the blocking bound); use the sparse-aware "
                "sweeps, or SparsePairwise.to_square(fill) in oracle code"
            )
        return self.total


def corpus_operands(
    model: SoftCosineModel,
    text_tokens: Sequence[Sequence[str]],
    url_tokens: Sequence[Iterable[str]],
) -> Tuple[PairwiseOperands, Dict[str, int]]:
    """``(operands, url_vocabulary)`` of a corpus under a fitted model.

    The URL vocabulary is first-seen order over each row's *sorted*
    tokens, so it (and every sparse product over it) is the same in any
    process — ``frozenset`` iteration order is hash-randomized.  Each
    ``url_tokens`` row must hold distinct tokens.
    """
    bow_normed, doc_emb, zero_rows = model.corpus_operands(text_tokens)
    url_lists = [sorted(tokens) for tokens in url_tokens]
    vocabulary = url_token_vocabulary(url_lists)
    member = url_membership_matrix(url_lists, vocabulary)
    sizes = np.asarray(member.sum(axis=1)).ravel()
    operands = PairwiseOperands(
        bow_normed=bow_normed,
        doc_emb=doc_emb,
        zero_rows=zero_rows,
        blend=model.blend,
        url_member=member,
        url_sizes=sizes,
        url_empty=sizes == 0,
    )
    return operands, vocabulary


def query_operands(
    model: SoftCosineModel,
    corpus: PairwiseOperands,
    url_vocabulary: Dict[str, int],
    text_tokens: Sequence[Sequence[str]],
    url_tokens: Sequence[Iterable[str]],
) -> QueryOperands:
    """Operands of a query batch against a :func:`corpus_operands` corpus.

    Query URL tokens are projected onto the corpus vocabulary (a token
    outside it can never intersect a corpus row) but still count in the
    query's true set size, so the Jaccard union stays exact.
    """
    q_bow, q_emb, q_zero = model.corpus_operands(text_tokens)
    url_lists = [sorted(tokens) for tokens in url_tokens]
    q_sizes = np.asarray(
        [len(tokens) for tokens in url_lists], dtype=np.float64
    )
    return QueryOperands(
        corpus=corpus,
        q_bow_normed=q_bow,
        q_doc_emb=q_emb,
        q_zero_rows=q_zero,
        q_url_member=url_membership_matrix(url_lists, url_vocabulary),
        q_url_sizes=q_sizes,
        q_url_empty=q_sizes == 0,
    )


def extend_corpus_operands(
    query: QueryOperands,
    url_vocabulary: Dict[str, int],
    url_tokens: Sequence[Iterable[str]],
) -> PairwiseOperands:
    """The query's corpus with the query rows appended to it.

    ``url_vocabulary`` is extended in place, first-seen over the sorted
    query tokens, so existing columns never move.  Every operand row is
    row-independent, so the result is bitwise what
    :func:`corpus_operands` builds over the union with the same model.
    """
    old = query.corpus
    url_lists = [sorted(tokens) for tokens in url_tokens]
    for tokens in url_lists:
        for token in tokens:
            if token not in url_vocabulary:
                url_vocabulary[token] = len(url_vocabulary)
    # Widen the existing membership to the extended vocabulary (a pure
    # shape change: no stored entry moves), then stack the query rows
    # projected onto the same vocabulary.
    padded = sparse.csr_matrix(
        (old.url_member.data, old.url_member.indices, old.url_member.indptr),
        shape=(old.url_member.shape[0], len(url_vocabulary)),
    )
    member = sparse.vstack(
        [padded, url_membership_matrix(url_lists, url_vocabulary)],
        format="csr",
    )
    # Every query token is in the vocabulary now, so the true query set
    # sizes are exactly the new membership row sums.
    sizes = np.concatenate([old.url_sizes, query.q_url_sizes])
    return PairwiseOperands(
        bow_normed=sparse.vstack(
            [old.bow_normed, query.q_bow_normed], format="csr"
        ),
        doc_emb=np.concatenate([old.doc_emb, query.q_doc_emb]),
        zero_rows=np.concatenate([old.zero_rows, query.q_zero_rows]),
        blend=old.blend,
        url_member=member,
        url_sizes=sizes,
        url_empty=sizes == 0,
    )


def compute_distances(
    records: Sequence[WpnRecord],
    features: Optional[List[WpnFeatures]] = None,
    text_model: Optional[SoftCosineModel] = None,
    *,
    plan: Optional[ExecutionPlan] = None,
    storage: str = "dense",
    blocking: str = "none",
    blocking_bound: float = DEFAULT_SPARSE_BOUND,
) -> DistanceMatrices:
    """Full pairwise distances for a corpus of valid WPN records.

    The total distance is the unweighted mean of the soft-cosine text
    distance and the URL-path Jaccard distance, exactly as in the paper.

    ``text_model`` contract: a *fitted* model is used as-is; an *unfitted*
    model contributes only its hyperparameters — an internal
    :meth:`~repro.core.textsim.SoftCosineModel.clone` is fitted on this
    corpus, and the caller's object is never mutated.

    ``plan`` controls tiling and parallelism (serial,
    :data:`~repro.perf.DEFAULT_TILE_SIZE` tiles by default); any plan
    yields bit-identical float64 matrices.
    ``storage="sparse"`` requires ``blocking="url"`` (and vice versa):
    only the entries surviving the blocking stage's certified screens are
    materialized, bitwise equal to the dense entries, with every absent
    pair certified >= ``blocking_bound``.
    """
    if storage not in STORAGES:
        raise ValueError(f"storage must be one of {STORAGES}, got {storage!r}")
    if blocking not in BLOCKINGS:
        raise ValueError(f"blocking must be one of {BLOCKINGS}, got {blocking!r}")
    if (storage == "sparse") != (blocking == "url"):
        raise ValueError(
            "storage='sparse' and blocking='url' must be enabled together: "
            "sparse storage holds exactly the candidate entries the "
            "blocking stage certifies"
        )
    if not 0.0 < blocking_bound <= 0.5:
        raise ValueError(
            f"blocking_bound must be in (0, 0.5], got {blocking_bound}"
        )
    if features is None:
        features = extract_all(records)
    if len(features) != len(records):
        raise ValueError("features and records must align")

    corpus = [list(f.text_tokens) for f in features]
    model = text_model if text_model is not None else SoftCosineModel()
    if not model.is_fitted:
        model = model.clone().fit(corpus)

    operands, _ = corpus_operands(
        model, corpus, [f.url_tokens for f in features]
    )

    plan = plan if plan is not None else ExecutionPlan()
    n = len(records)
    tiles = plan.tiles(n)

    if storage == "sparse":
        counts_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        text_parts: List[np.ndarray] = []
        url_parts: List[np.ndarray] = []
        n_raw = 0
        kernel = partial(candidate_distance_tile, bound=blocking_bound)
        for counts, cols, text_vals, url_vals, raw in plan.stream(
            kernel, operands, tiles
        ):
            counts_parts.append(counts)
            cols_parts.append(cols)
            text_parts.append(text_vals)
            url_parts.append(url_vals)
            n_raw += raw
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts_parts), out=indptr[1:])
        indices = (
            np.concatenate(cols_parts)
            if cols_parts
            else np.empty(0, dtype=np.int64)
        )
        text_data = np.concatenate(text_parts)
        url_data = np.concatenate(url_parts)
        # Assemble exactly as the dense branch does: the mean of the
        # channels.
        total_data = (text_data + url_data) / 2.0
        candidate = SparsePairwise(
            n, indptr, indices, total_data, bound=blocking_bound
        )
        # Keep only within-component entries of the sub-bound graph: the
        # dropped entries are certifiably >= bound and can never influence
        # a certified merge, so storage shrinks without weakening the
        # absent-pair bound.
        n_components, labels = component_labels(candidate)
        keep, kept_indptr = prune_cross_component(candidate, labels)
        stats = BlockingStats(
            n=n,
            n_candidate_pairs=n_raw,
            n_stored_pairs=int(keep.sum()),
            n_components=n_components,
            max_component=(
                int(np.bincount(labels).max()) if n else 0
            ),
        )
        kept_indices = indices[keep]
        return DistanceMatrices(
            text=SparsePairwise(
                n, kept_indptr, kept_indices, text_data[keep],
                bound=blocking_bound,
            ),
            url=SparsePairwise(
                n, kept_indptr, kept_indices, url_data[keep],
                bound=blocking_bound,
            ),
            total=SparsePairwise(
                n, kept_indptr, kept_indices, total_data[keep],
                bound=blocking_bound,
            ),
            operands=operands,
            blocking_stats=stats,
        )

    text_out = np.empty((n, n))
    url_out = np.empty((n, n))
    total_out = np.empty((n, n))
    for tile, (text_rows, url_rows) in zip(
        tiles, plan.stream(combined_distance_tile, operands, tiles)
    ):
        span = slice(tile.start, tile.stop)
        text_out[span] = text_rows
        url_out[span] = url_rows
        total_out[span] = (text_rows + url_rows) / 2.0
    return DistanceMatrices(text=text_out, url=url_out, total=total_out)
