"""Dependency analysis: affine maps, descents, domains, criteria."""

from .affine import Affine, affine_from_expr, vector_to_affine
from .callgraph import call_graph, group_of, recursive_groups
from .cross import CrossDescent, extract_cross_descents
from .criteria import Criterion, schedule_criteria
from .descent import Component, DescentFunction, extract_descents
from .domain import Domain
from .plan import FunctionPlan, function_plan

__all__ = [
    "Affine",
    "call_graph",
    "group_of",
    "recursive_groups",
    "CrossDescent",
    "extract_cross_descents",
    "affine_from_expr",
    "vector_to_affine",
    "Criterion",
    "schedule_criteria",
    "Component",
    "DescentFunction",
    "extract_descents",
    "Domain",
    "FunctionPlan",
    "function_plan",
]
