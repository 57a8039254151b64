"""Coherent double circuit configurations on torus graphs.

Points on white vertices, hyperplanes on black vertices, subject to the
circuit condition (V) at every vertex and the multi-ratio-one condition
(F) at every face.  The package validates these conditions exactly over
the rationals, applies the dimer local moves with their geometric label
updates, runs pentagram / spiral / Q-net dynamics both by direct formula
and by move scripts, and computes Kasteleyn weights, spectral curves,
cohomology classes, and black-data reconstruction.
"""

from .config import (
    CohomologyClass,
    DoubleCircuitConfig,
    check_F,
    check_V,
    cohomology_class,
    load_config,
    save_config,
)
from .geometry import (
    HomogeneousElement,
    Subspace,
    affine_point,
    circumscribed_pair,
    face_coherent,
    hyperplane,
    is_circuit,
    meet,
    multi_ratio,
    normalize,
    pairing,
    point,
    span,
)
from .laurent import LaurentPoly2, newton_polygon, poly_from_json, poly_to_json
from .moves import (
    MoveScript,
    MoveStep,
    add_degree2,
    apply_script,
    remove_degree2,
    script_to_json,
    urban_renewal,
)
from .spectral import (
    kasteleyn_weights,
    kernel_at,
    on_curve,
    reconstruct_black,
    spectral_polynomial,
    spectral_polynomial_dual,
)
from .torusgraph import TorusGraph, dimension_report, validate_graph

__all__ = [
    "CohomologyClass",
    "DoubleCircuitConfig",
    "HomogeneousElement",
    "LaurentPoly2",
    "MoveScript",
    "MoveStep",
    "Subspace",
    "TorusGraph",
    "add_degree2",
    "affine_point",
    "apply_script",
    "check_F",
    "check_V",
    "circumscribed_pair",
    "cohomology_class",
    "dimension_report",
    "face_coherent",
    "hyperplane",
    "is_circuit",
    "kasteleyn_weights",
    "kernel_at",
    "load_config",
    "meet",
    "multi_ratio",
    "newton_polygon",
    "normalize",
    "on_curve",
    "pairing",
    "point",
    "poly_from_json",
    "poly_to_json",
    "reconstruct_black",
    "remove_degree2",
    "save_config",
    "script_to_json",
    "span",
    "spectral_polynomial",
    "spectral_polynomial_dual",
    "urban_renewal",
    "validate_graph",
]
