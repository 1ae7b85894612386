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

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "Balance", "BracketTable", "InvariantError",
    "KMPoint", "KowalevskiReport", "LaurentSeries", "MultiPoly",
    "MumfordTriple", "NotInImageError", "ParseError", "PhiImage", "Poly",
    "ProjectivePoint9", "ResonanceError", "TodaPoint", "Trajectory",
    "balance_limit", "char_poly", "dirac_reduce",
    "divided_difference", "divisor_points", "example5_report",
    "incidence_data", "indicial_solutions", "integrate", "involution_j",
    "km_even_split", "km_field", "kowalevski", "laurent_balance",
    "make_balance", "momentum", "mumford_bracket_table",
    "mumford_flow", "parse_poly", "phi", "phi_all", "phi_inverse",
    "pr_split", "prym_bracket_table", "prym_flow", "quad_mumford_table",
    "quotient_curves", "sigma_enum", "toda_bracket",
    "toda_flow", "toda_integrals", "tridiag_minor_det", "z_embedding",
]

# The modules behind __all__, lowest layer first.  Each loads on first use
# of one of its names, so importing one module (prymlab.toda, say) loads
# only the layers below it.  A module imports only from lower layers, so
# the first one that binds a name is the one that defines it.
_HOMES = ("errors", "algebra", "symbolic", "mumford", "prym", "toda", "painleve",
          "morphism", "example5", "numerics")


def __getattr__(name: str):
    if name in __all__:
        for home in _HOMES:
            module = import_module(f"{__name__}.{home}")
            if hasattr(module, name):
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
