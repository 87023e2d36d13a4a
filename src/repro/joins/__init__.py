"""Join processing over acyclic queries: message passing, counting,
Yannakakis evaluation, and direct access (the sampling strategy's uniform
answers, :class:`repro.approx.randomized.SampledAnswers`)."""

from repro.joins.counting import count_answers
from repro.joins.direct_access import DirectAccess
from repro.joins.message_passing import MaterializedTree
from repro.joins.tree_cache import TreeCache
from repro.joins.yannakakis import evaluate

__all__ = [
    "MaterializedTree",
    "TreeCache",
    "count_answers",
    "evaluate",
    "DirectAccess",
]
