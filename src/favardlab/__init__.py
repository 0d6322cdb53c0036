"""Exact and numerical Favard-length computations for self-similar sets."""

from .errors import (
    ConfigError,
    DegenerateFitError,
    MalformedIntervalError,
    PreconditionError,
    SizeCapExceeded,
)
from .ifs import (
    IFS2D,
    PRESET_NAMES,
    Similitude2D,
    ValidationReport,
    dump_config,
    dumps_config,
    four_corner,
    load_config,
    loads_config,
    preset,
    sierpinski_gasket,
    sparse_corner,
    validate,
)
from .intervals import (
    Interval,
    IntervalSet,
    rational_str,
    to_fraction,
)
from .projection import (
    Direction,
    generation,
    iter_generations,
    project_ifs,
    sheared_measures,
)

__version__ = "0.1.0"

from .favard import (
    AlphaSequence,
    Certificate,
    ConvexityReport,
    FavardEstimate,
    LipschitzReport,
    QuadratureConfig,
    SpecialSlopeReport,
    alpha_sequence,
    check_convexity,
    favard,
    lipschitz_scan,
    lower_bound_certificate,
    special_slope_check,
)
from .dimension import (
    CoverStatistic,
    DecayRecord,
    ExponentFit,
    SeesawResult,
    cover_stats,
    decay_series,
    exponent_fit,
    lattice,
    neighborhood_sequence,
    read_points,
    section_lattice,
    seesaw_builder,
)
from .needle import NeedleConfig, NeedleEstimate, circumradius, estimate_favard_mc
