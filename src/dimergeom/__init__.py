"""Coherent double circuit configurations on torus graphs.

Points on white vertices, hyperplanes on black vertices, subject to the
circuit condition (V) at every vertex and the multi-ratio-one condition
(F) at every face.  The package validates these conditions exactly over
the rationals, applies the dimer local moves with their geometric label
updates, runs pentagram / spiral / Q-net dynamics both by direct formula
and by move scripts, and computes Kasteleyn weights, spectral curves,
cohomology classes, and black-data reconstruction.

The names below are loaded from their submodule on first use (PEP 562),
so importing the package, or one submodule, compiles only what it needs.
"""

from importlib import import_module

_SUBMODULE = {
    name: module
    for module, names in (
        ("config", "CohomologyClass DoubleCircuitConfig check_F check_V cohomology_class load_config save_config"),
        (
            "geometry",
            "HomogeneousElement affine_point circumscribed_pair face_coherent hyperplane is_circuit meet multi_ratio"
            " pairing point",
        ),
        ("laurent", "LaurentPoly2 newton_polygon poly_from_json poly_to_json"),
        ("moves", "MoveScript MoveStep add_degree2 apply_script remove_degree2 script_to_json urban_renewal"),
        (
            "spectral",
            "BlackFibre kasteleyn_weights kernel_at on_curve reconstruct_black spectral_polynomial spectral_polynomial_dual",
        ),
        ("torusgraph", "TorusGraph dimension_report validate_graph"),
    )
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
