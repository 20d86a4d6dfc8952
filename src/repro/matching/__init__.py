"""Pattern algorithms: homomorphism, evaluation, containment, minimization."""

from .containment import contains, equivalent, wildcard_run_bound
from .evaluate import (
    evaluate,
    evaluate_boolean,
    evaluate_relative,
    satisfies_relative,
)
from .homomorphism import (
    constraints_subsume,
    feasible_anchors,
    feasible_pairs,
    has_homomorphism,
    branch_maps_into,
    subtree_maps_to,
    label_subsumes,
    node_subsumes,
)
from .minimize import minimize
from .tjfast import leaf_streams, tjfast_evaluate

__all__ = [
    "constraints_subsume",
    "contains",
    "equivalent",
    "evaluate",
    "evaluate_boolean",
    "evaluate_relative",
    "feasible_anchors",
    "feasible_pairs",
    "has_homomorphism",
    "branch_maps_into",
    "subtree_maps_to",
    "label_subsumes",
    "leaf_streams",
    "tjfast_evaluate",
    "minimize",
    "node_subsumes",
    "satisfies_relative",
    "wildcard_run_bound",
]
