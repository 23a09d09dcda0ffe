"""Fixed-point toolbox for union averaged nonexpansive operators.

The package provides:

* ``core_ops`` -- single-valued averaged maps, set-valued union maps with
  active selectors, and the closure combinators (union, convex combination,
  composition, relaxation) with averagedness bookkeeping.
* ``minconvex`` -- pointwise minima of convex functions: values, Moreau
  envelopes, set-valued proximity operators, and the piecewise local-minimum
  test.
* ``sets`` -- union-convex sets, multi-valued projectors/reflectors, the
  two-set Douglas-Rachford operator, and the sparsity constraint.
* ``solvers`` -- iteration drivers (KM with admissible control, union-map
  iteration, cyclic compositions, cyclic projections, cyclic and anchored
  Douglas-Rachford, proximal point, forward-backward, Douglas-Rachford
  splitting) with trace capture.
* ``oracle`` -- brute-force verification: grid prox, attraction-radius
  estimation, inequality sampling, fixed-point classification.
* ``cli`` -- config-driven experiment runner (``run``/``verify``/``sweep``).
"""

from unionfix.core_ops import AveragedMap, UnionMap
from unionfix.minconvex import ConvexPiece, MinConvexFn
from unionfix.sets import ConvexSetPiece, UnionConvexSet

__all__ = [
    "AveragedMap",
    "UnionMap",
    "ConvexPiece",
    "MinConvexFn",
    "ConvexSetPiece",
    "UnionConvexSet",
]

__version__ = "0.1.0"
