"""Every numerical tolerance of the package, each with what it guards.

Relative tolerances are scaled by the size of the operand named in their
comment; all others are absolute.
"""

# The one rank cutoff.  linops.func_on_support drops eigenvalues at or below
# RANK_TOL * max |eigenvalue|, so every negative power of rho_B is taken on
# its support and exponent 0 is the support projector.
# entropies.d0_relative applies it to the Gram matrix t^dag t of rho = t t^dag
# (d_B x d_B for the monogamy lhs), whose nonzero eigenvalues are rho's, so it
# cuts and flags the eigenvalues of rho_AE; it treats a support overlap at or
# below RANK_TOL (absolute) as orthogonal supports.
RANK_TOL = 1e-10

# Hermiticity of a func_on_support input, relative to its largest entry.
FUNC_HERM_TOL = 1e-8
# Hermiticity of a DensityMatrix.
STATE_HERM_TOL = 1e-11
# Distance of a DensityMatrix's trace from 1; also of |psi|^2, the trace of
# the rho_AB that monogamy_report certifies, from 1.
TRACE_TOL = 1e-11
# Most negative eigenvalue a DensityMatrix may have.
EIG_TOL = 1e-10

# Norm of each effect vector of a MeasurementFamily.
NORM_TOL = 1e-11
# Largest entry of sum_k scale_k |v_k><v_k| - 1 for a MeasurementFamily setting.
# A setting of d unit vectors that passes it is an orthonormal basis whose
# scales lie within d * COMPLETENESS_TOL + 2 NORM_TOL of 1, so a basis setting
# needs no scale test of its own.
COMPLETENESS_TOL = 1e-10

# Most negative entry of a JointDistribution table.
TABLE_NEG_TOL = 1e-12
# Distance of a JointDistribution table's sum from 1.
TABLE_SUM_TOL = 1e-9

# Slack on the range [1/d, 1] of a two-basis guessing probability.
PROB_RANGE_TOL = 1e-12

# Default verdict tolerance of the main equality, the n-basis bounds and the witness.
EQUALITY_TOL = 1e-9
# Default verdict tolerance of the monogamy equation.
MONOGAMY_TOL = 1e-8
# Largest design defect a family may have and still be used for the equality.
CERTIFICATION_TOL = 1e-9
