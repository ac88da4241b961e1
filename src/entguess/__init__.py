"""Numerics for the exact trade-off between bipartite entanglement and
pretty-good-measurement guessing probability.

The package verifies that measuring one half of a bipartite state in a
complete set of mutually unbiased bases (or any other measurement family
generating a complex projective 2-design) ties Bob's guessing probability
to the state's conditional collision entropy through an exact equality,
together with the tight n-basis bounds, an entanglement witness on joint
statistics, and a monogamy equation for tripartite pure states.  The two
sides agree at machine precision on the states `entguess verify` draws; a
state whose rho_B is ill-conditioned is the known exception, where the
measured side loses digits as kappa(rho_B) and nu grow (see the README).
"""

from .designs import (
    MeasurementFamily,
    clifford_orbit_family,
    design_defect,
    mub_family,
    sic_povm,
)
from .entropies import (
    JointDistribution,
    family_guess_prob,
    h2nu,
    h2nu_outcomes,
    pg_recovery_fidelity,
)
from .errors import (
    DesignDefectError,
    DimensionError,
    EntguessError,
    FormatError,
    InfiniteDivergence,
    NotPositiveError,
    ParameterError,
    UnsupportedDimensionError,
)
from .game import GameResult, simulate_game
from .linops import (
    max_entangled,
)
from .relations import (
    EPR,
    HEISENBERG,
    RelationReport,
    achiever_state,
    equality_report,
    guessing_bounds,
    monogamy_report,
    nbasis_bounds,
    two_to_full_bound,
    witness,
)
from .states import (
    DensityMatrix,
    mixed_rank_states,
    pure_states,
    random_density,
    random_separable,
)

__version__ = "0.1.0"
