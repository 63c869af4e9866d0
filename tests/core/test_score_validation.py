"""Non-finite scores are refused at every write entry point.

``NaN`` compares false against everything, so a ``score < 0`` check lets it
through, and once stored the methods disagree about where it ranks (the
clustered Score lists, the Score-Threshold bounds and the chunk boundaries
each order it differently).  ``±inf`` sits above or below every chunk
boundary.  Both are rejected with a typed error before anything is written.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.indexes.chunking import ChunkMap
from repro.core.scorespec import ScoreSpec
from repro.core.text_index import SVRTextIndex
from repro.errors import InvertedIndexError, ScoreSpecError
from repro.relational.functions import ScalarFunction, weighted_sum
from tests.conftest import METHOD_OPTIONS, SVR_ONLY_METHODS, TERMSCORE_METHODS, make_corpus

ALL_METHODS = SVR_ONLY_METHODS + TERMSCORE_METHODS
NON_FINITE = [math.nan, math.inf, -math.inf]


def _state(index: SVRTextIndex) -> tuple:
    """Every stored key-value entry plus the answers to a few queries."""
    stores = {
        name: list(index.env.kvstore(name).items())
        for name in index.env.kvstore_names()
    }
    answers = [
        [(r.doc_id, r.score) for r in index.search(keywords, k=k,
                                                  conjunctive=conjunctive).results]
        for keywords, k, conjunctive in [(["w001"], 4, True), (["w002", "w003"], 5, False)]
    ]
    return stores, answers, index.index.update_stats.score_updates


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_non_finite_scores_are_refused(method, shards, bad):
    corpus = make_corpus(random.Random(5), num_docs=40, vocabulary=10)
    index = SVRTextIndex(method=method, shards=shards, **METHOD_OPTIONS[method])
    try:
        for doc_id, terms, score in corpus:
            index.add_document_terms(doc_id, terms, score)
        with pytest.raises(InvertedIndexError, match="finite"):
            index.add_document_terms(41, ["w001"], bad)
        # The refusal left no trace: the same document can still be added.
        index.add_document_terms(41, ["w001"], 1.0)
        index.finalize()
        before = _state(index)

        with pytest.raises(InvertedIndexError, match="finite"):
            index.update_score(3, bad)
        with pytest.raises(InvertedIndexError, match="finite"):
            index.apply_score_updates([(1, 50.0), (3, bad), (2, 60.0)])
        with pytest.raises(InvertedIndexError, match="finite"):
            index.insert_document_terms(99, ["w001"], bad)
        assert _state(index) == before
        assert index.current_score(99) is None
    finally:
        index.close()


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_chunk_map_refuses_non_finite_scores(bad):
    with pytest.raises(InvertedIndexError, match="finite"):
        ChunkMap(lower_bounds=(0.0, 10.0)).chunk_of(bad)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_score_spec_refuses_non_finite_scores(bad):
    spec = ScoreSpec(
        components=(ScalarFunction(name="S1", arity=1, fn=lambda _key: bad),),
        aggregate=weighted_sum("Agg", [1.0]),
    )
    with pytest.raises(ScoreSpecError, match="finite"):
        spec.svr_score(1)
