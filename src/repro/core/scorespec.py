"""SVR score specification (§3.1).

An SVR score for a text column is specified by a list of scoring components
``S1..Sm`` (each a scalar function of the scored row's primary key) and an
aggregation function ``Agg`` combining the component values.  Optionally the
specification also includes the built-in TF-IDF term score, in which case the
term component is *not* folded into the materialised Score view but handled by
the query algorithm (the TermScore index variants), exactly as §3.2 prescribes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ScoreSpecError
from repro.relational.functions import ScalarFunction, weighted_sum


@dataclass(frozen=True)
class ScoreSpec:
    """A complete SVR score specification.

    Attributes
    ----------
    components:
        The scoring component functions ``S1..Sm``; each takes the scored
        row's primary-key value and returns a float.
    aggregate:
        The ``Agg`` function combining the component scores into one number.
        Its arity must equal ``len(components)``.
    include_term_score:
        Whether the final ranking also includes a per-query term score (the
        ``TFIDF()`` built-in of §3.1).  When true, query processing uses the
        combined scoring function ``f = svr + term_weight * sum(term scores)``
        and the TermScore index variants are required.
    term_weight:
        Weight applied to the term-score sum in the combined function (the
        ``s4/2`` coefficient in the paper's example corresponds to 0.5).
    """

    components: tuple[ScalarFunction, ...]
    aggregate: ScalarFunction
    include_term_score: bool = False
    term_weight: float = 1.0
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if not self.components:
            raise ScoreSpecError("an SVR specification needs at least one scoring component")
        if self.aggregate.arity != len(self.components):
            raise ScoreSpecError(
                f"aggregate {self.aggregate.name!r} expects {self.aggregate.arity} "
                f"arguments but {len(self.components)} components were given"
            )
        if self.term_weight < 0:
            raise ScoreSpecError("term_weight must be non-negative")
        object.__setattr__(self, "_names", tuple(fn.name for fn in self.components))

    @classmethod
    def weighted(cls, components: Sequence[ScalarFunction], weights: Sequence[float],
                 include_term_score: bool = False, term_weight: float = 1.0) -> "ScoreSpec":
        """Build a spec whose ``Agg`` is a weighted sum of the components.

        This covers the paper's example ``Agg(s1,s2,s3) = s1*100 + s2/2 + s3``.
        """
        if len(components) != len(weights):
            raise ScoreSpecError(
                f"got {len(components)} components but {len(weights)} weights"
            )
        aggregate = weighted_sum("Agg", weights)
        return cls(
            components=tuple(components),
            aggregate=aggregate,
            include_term_score=include_term_score,
            term_weight=term_weight,
        )

    @property
    def component_names(self) -> tuple[str, ...]:
        """Names of the scoring components, in order."""
        return self._names

    def svr_score(self, key: Any) -> float:
        """Evaluate ``Agg(S1(key), ..., Sm(key))`` — the structured part of the score.

        This is the expression the Score materialised view computes per row;
        it never includes the term score.
        """
        component_scores = [float(component(key)) for component in self.components]
        score = float(self.aggregate(*component_scores))
        if not math.isfinite(score) or score < 0:
            raise ScoreSpecError(
                f"SVR scores must be finite and non-negative (got {score} for key {key!r}); "
                "rescale the aggregation function"
            )
        return score

    def component_scores(self, key: Any) -> dict[str, float]:
        """Per-component score values for a key (useful for explain-style output)."""
        return {fn.name: float(fn(key)) for fn in self.components}
