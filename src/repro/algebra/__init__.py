"""The extended relational algebra over functional relations.

Operators: product join ``⋈*`` (Definition 2), marginalization /
GroupBy (Definition 3), selection (restricted answer / constrained
domain), FD-projection (Proposition 1), and the product / update
semijoins (Definition 6).
"""

from repro.algebra.aggregate import marginalize, project_fd, total
from repro.algebra.join import product_join, quotient_join
from repro.algebra.select import restrict, restrict_range
from repro.algebra.semijoin import (
    product_semijoin,
    shared_variable_names,
    update_semijoin,
)

__all__ = [
    "product_join",
    "quotient_join",
    "marginalize",
    "total",
    "project_fd",
    "restrict",
    "restrict_range",
    "product_semijoin",
    "update_semijoin",
    "shared_variable_names",
]
