"""Exact-arithmetic and numerical laboratory for a family of integrable
systems: odd/even Mumford systems, their parity-constrained (hyperelliptic
Prym) subsystems, the periodic sl(n) Toda lattice with its Volterra slice,
the tridiagonal-minor morphism tying the two sides together, and the
Painleve analysis of the Volterra field.

Everything algebraic runs over exact rationals: Poisson brackets are
materialized as polynomial coordinate tables, Jacobi identities and
conservation laws are checked with zero tolerance, and Laurent solutions
carry explicit validity windows.  A floating-point lane (numerics) adds
fixed-step integration with conservation monitoring."""

from .algebra import (ExactScalar, LaurentSeries, Poly, TridiagSpec, divided_difference,
                      parse_poly, pr_split, tridiag_minor_det)
from .errors import InvariantError, NotInImageError, ParseError, ResonanceError
from .example5 import (ProjectivePoint9, balance_limit, divisor_points,
                       example5_report, incidence_data, quotient_curves,
                       spectral_data_5, z_embedding)
from .morphism import PhiImage, phi, phi_inverse, quad_mumford_table
from .mumford import (MumfordTriple, momentum, mumford_bracket_table,
                      mumford_flow)
from .numerics import Trajectory, integrate
from .painleve import (Balance, KowalevskiReport, indicial_solutions,
                       kowalevski, laurent_balance, make_balance, sigma_enum)
from .prym import dirac_reduce, involution_j, prym_bracket_table, prym_flow
from .symbolic import BracketTable, MultiPoly
from .toda import (KMPoint, TodaPoint, char_poly, km_even_split, km_field,
                   toda_bracket, toda_flow, toda_integrals)

__version__ = "0.1.0"

__all__ = [
    "Balance", "BracketTable", "ExactScalar", "InvariantError",
    "KMPoint", "KowalevskiReport", "LaurentSeries", "MultiPoly",
    "MumfordTriple", "NotInImageError", "ParseError", "PhiImage", "Poly",
    "ProjectivePoint9", "ResonanceError", "TodaPoint", "Trajectory",
    "TridiagSpec", "balance_limit", "char_poly", "dirac_reduce",
    "divided_difference", "divisor_points", "example5_report",
    "incidence_data", "indicial_solutions", "integrate", "involution_j",
    "km_even_split", "km_field", "kowalevski", "laurent_balance",
    "make_balance", "momentum", "mumford_bracket_table",
    "mumford_flow", "parse_poly", "phi", "phi_inverse",
    "pr_split", "prym_bracket_table", "prym_flow", "quad_mumford_table",
    "quotient_curves", "sigma_enum", "spectral_data_5", "toda_bracket",
    "toda_flow", "toda_integrals", "tridiag_minor_det", "z_embedding",
]
