"""Certificates and optimizers for genuine tripartite nonlocality.

The package decides whether a three-qubit density matrix can exhibit
genuine tripartite nonlocality, working from eigenvalue data alone. Two
independent routes are kept separate on purpose: closed certificate
windows derived from a two-qubit witness on a reduced pair (bounds), and
a direct numerical ascent over measurement settings (optimize). The
reproduce module regenerates the bundled reference tables and records
every place where the recomputation disagrees with the listed values.
"""

from __future__ import annotations

from .bounds import (
    BoundConfig,
    BoundsReport,
    Verdict,
    Window,
    detect_genuine,
    full_report,
)
from .nonlocality import (
    NonlocalityStrength,
    horodecki_m,
    is_detected,
    k_value,
    p_max_optimal,
    r_cap,
    s_nl_detected,
    s_nl_new,
)
from .operators import (
    ChshSettings,
    SvetlichnySettings,
    UnitVector3,
    chsh_operator,
    chsh_witness,
    plane_witness,
    svetlichny_operator,
)
from .optimize import (
    DEFAULT_SEED,
    Optimum,
    chsh_expectation,
    maximize_chsh,
    maximize_svetlichny,
    svetlichny_expectation,
)
from .states import (
    FAMILIES,
    DensityMatrix,
    make_example,
    make_reference,
    negativity,
    partial_trace,
    partial_transpose,
    validate,
)

__all__ = [
    "BoundConfig",
    "BoundsReport",
    "ChshSettings",
    "DEFAULT_SEED",
    "DensityMatrix",
    "FAMILIES",
    "NonlocalityStrength",
    "Optimum",
    "SvetlichnySettings",
    "UnitVector3",
    "Verdict",
    "Window",
    "chsh_expectation",
    "chsh_operator",
    "chsh_witness",
    "detect_genuine",
    "full_report",
    "horodecki_m",
    "is_detected",
    "k_value",
    "make_example",
    "make_reference",
    "maximize_chsh",
    "maximize_svetlichny",
    "negativity",
    "p_max_optimal",
    "partial_trace",
    "partial_transpose",
    "plane_witness",
    "r_cap",
    "s_nl_detected",
    "s_nl_new",
    "svetlichny_expectation",
    "svetlichny_operator",
    "validate",
]

__version__ = "0.1.0"
