"""Sparse low-rank nonnegative matrix factorization for blind unmixing.

Factors an observation matrix Y (bands by pixels) as Phi W^T with both
factors nonnegative, starting from an overestimate r of the number of
endmembers.  A column-wise group penalty on the stacked factors drives
superfluous columns to zero, so the surviving column count estimates the
number of endmembers while the surviving columns deliver the unmixing.
"""

from .initializers import init_uniform, init_vca, nnls_abundances
from .io import (
    load_matrix,
    read_report,
    report_values,
    save_matrix,
    save_results,
    write_pgm,
    write_report,
)
from .metrics import (
    MatchResult,
    abundance_rmse,
    evaluate_unmixing,
    match_columns,
    spectral_angle,
)
from .solver import (
    DEFAULT_DELTA,
    DEFAULT_LAMBDA1,
    SolverConfig,
    SolverDiverged,
    SolverReport,
    SolverState,
    solve,
    with_defaults,
)
from .synth import (
    GroundTruth,
    default_library_path,
    gen_abundances,
    gen_endmembers,
    mix_and_noise,
    simulate,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_DELTA",
    "DEFAULT_LAMBDA1",
    "SolverConfig",
    "SolverDiverged",
    "SolverReport",
    "SolverState",
    "solve",
    "with_defaults",
    "init_uniform",
    "init_vca",
    "nnls_abundances",
    "GroundTruth",
    "gen_abundances",
    "gen_endmembers",
    "mix_and_noise",
    "simulate",
    "default_library_path",
    "load_matrix",
    "save_matrix",
    "save_results",
    "write_report",
    "read_report",
    "report_values",
    "write_pgm",
    "MatchResult",
    "spectral_angle",
    "match_columns",
    "abundance_rmse",
    "evaluate_unmixing",
    "__version__",
]
