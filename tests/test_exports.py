import types

import favardlab

# The names a caller gets from ``import favardlab``.  Helpers used only by
# tests stay in their modules; adding a name here is a deliberate change.
PUBLIC = {
    "AlphaSequence", "Certificate", "ConfigError", "ConvexityReport",
    "CoverStatistic", "DecayRecord", "DegenerateFitError", "Direction",
    "ExponentFit", "FavardEstimate", "IFS2D", "Interval", "IntervalSet",
    "LipschitzReport", "MalformedIntervalError", "NeedleConfig",
    "NeedleEstimate", "PRESET_NAMES", "PreconditionError", "QuadratureConfig",
    "SeesawResult", "Similitude2D", "SizeCapExceeded", "SpecialSlopeReport",
    "ValidationReport", "alpha_sequence", "check_convexity", "circumradius",
    "cover_stats", "decay_series", "dump_config", "dumps_config",
    "estimate_favard_mc", "exponent_fit", "favard", "four_corner",
    "generation", "iter_generations", "lattice", "lipschitz_scan",
    "load_config", "loads_config", "lower_bound_certificate",
    "neighborhood_sequence", "preset", "project_ifs", "rational_str",
    "read_points", "section_lattice", "seesaw_builder", "sheared_measures",
    "sierpinski_gasket", "sparse_corner", "special_slope_check",
    "to_fraction", "validate",
}


def test_public_exports_are_pinned():
    # submodules become attributes once imported, so they are left out
    names = {name for name, value in vars(favardlab).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
