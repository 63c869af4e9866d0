"""Brute-force top-k oracle built only from the generated inputs.

The oracle knows each document's distinct term set (from the generated
corpus) and its current score (the initial score with every applied update
folded in).  It never reads the engine's state.  An answer is judged by
score, not by document id, because many documents can share the k-th score
(decreasing updates clamp scores to 0.0); any choice among tied documents is
accepted.
"""

from __future__ import annotations

import heapq


class Oracle:
    """Reference model of the index: term -> doc ids, doc id -> score."""

    def __init__(self, documents, scores: dict[int, float]) -> None:
        self.postings: dict[str, set[int]] = {}
        self.terms: dict[int, tuple[str, ...]] = {}
        for document in documents:
            distinct = tuple(sorted(set(document.terms)))
            self.terms[document.doc_id] = distinct
            for term in distinct:
                self.postings.setdefault(term, set()).add(document.doc_id)
        self.scores = dict(scores)

    def apply(self, pairs) -> None:
        """Fold one applied window of ``(doc_id, new_score)`` pairs in."""
        for doc_id, score in pairs:
            self.scores[doc_id] = score

    def candidates(self, keywords, conjunctive: bool) -> set[int]:
        sets = [self.postings.get(term, set()) for term in keywords]
        if conjunctive:
            return set.intersection(*sorted(sets, key=len))
        return set().union(*sets)

    def check(self, keywords, k: int, conjunctive: bool, results,
              scores: "dict[int, float] | None" = None) -> "str | None":
        """``None`` when ``results`` is a correct top-k, else what is wrong.

        ``results`` is a sequence of ``(doc_id, score)`` best first;
        ``scores`` overrides the oracle's current scores (the post-crash
        probe checks against the committed snapshot).
        """
        scores = self.scores if scores is None else scores
        pool = self.candidates(keywords, conjunctive)
        expected = heapq.nlargest(k, (scores[doc_id] for doc_id in pool))
        ids = [doc_id for doc_id, _score in results]
        got = [score for _doc_id, score in results]
        if len(set(ids)) != len(ids):
            return f"{keywords}: duplicate documents {ids}"
        stray = [doc_id for doc_id in ids if doc_id not in pool]
        if stray:
            return f"{keywords}: documents {stray} do not match the query"
        stale = [doc_id for doc_id, score in results if scores[doc_id] != score]
        if stale:
            return f"{keywords}: documents {stale} carry stale scores"
        if got != expected:
            return f"{keywords}: scores {got} != expected {expected}"
        return None
