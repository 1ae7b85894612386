"""Command-line driver: every capability as a subcommand with JSON/CSV
output suitable for scripting and regression baselines.

Exit codes: 0 success, 2 violated invariant (the offending invariant is
named in the diagnostic JSON), 3 malformed input.  All output JSON is
emitted with sorted keys, so identical (arguments, seed) pairs produce
byte-identical artifacts, except for the seconds each verify check took
(its "elapsed" field).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import format_poly, format_rational, parse_poly, parse_rational
from .errors import InvariantError, ParseError, PrymlabError
from .mumford import MumfordTriple, mumford_bracket_table, phase_coordinates, point_values
from .morphism import phi, phi_inverse, quad_mumford_table
from .painleve import (indicial_solutions, kowalevski, laurent_balance,
                       make_balance, sigma_enum)
from .prym import prym_bracket_table
from .toda import (KMPoint, TodaPoint, toda_bracket_table, toda_coordinate_names,
                   toda_point_values)
from . import example5, numerics, verify

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise ParseError(message)


def _load_json_arg(text: str) -> dict:
    """Inline JSON, or @path to a JSON file."""
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON argument: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write a file named on the command line; an unwritable path is malformed input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write output file: {exc}") from exc


def _emit(payload, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _parse_cells(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"malformed index list {text!r}") from exc


def _series_json(series) -> dict:
    return {"lowest_exponent": series.lo if series.coeffs else 0,
            "pole_order": series.pole_order(),
            "known_through": series.known_through(),
            "coefficients": [format_rational(c) for c in series.coeffs]}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_sigma(args) -> dict:
    return {"n": args.n, "subsets": [list(s) for s in sigma_enum(args.n)]}


def _cmd_indicial(args) -> dict:
    return {"n": args.n, "balances": [b.to_json() for b in indicial_solutions(args.n)]}


def _cmd_kowalevski(args) -> dict:
    return kowalevski(args.n, _parse_cells(args.A)).to_json()


def _cmd_balance(args) -> dict:
    balance = make_balance(args.n, _parse_cells(args.A))
    raw = _load_json_arg(args.params) if args.params else {}
    if not isinstance(raw, dict):
        raise ParseError("--params must be a JSON object")
    params = {key: parse_rational(str(value)) for key, value in raw.items()}
    series = laurent_balance(args.n, balance, params, args.order)
    payload = balance.to_json()
    payload["order"] = args.order
    payload["series"] = [_series_json(s) for s in series]
    return payload


def _cmd_phi(args) -> dict:
    point = TodaPoint.from_json(_load_json_arg(args.point))
    return phi(point, args.m).to_json()


def _cmd_phi_inverse(args) -> dict:
    triple = MumfordTriple.from_json(_load_json_arg(args.triple))
    return phi_inverse(triple, args.n).to_json()


_BRACKET_SPACES = ("odd-mumford", "even-mumford", "odd-prym", "even-prym",
                   "quad-mumford", "toda-linear", "toda-quadratic", "km")


def _cmd_bracket(args) -> dict:
    phi_poly = parse_poly(args.phi)
    space = args.space
    if space in ("odd-mumford", "even-mumford"):
        if args.g is None:
            raise ParseError("--g is required for Mumford spaces")
        table = mumford_bracket_table(space, args.g, phi_poly)
    elif space in ("odd-prym", "even-prym"):
        if args.n is None:
            raise ParseError("--n is required for prym spaces")
        table = prym_bracket_table(space, args.n, phi_poly)
    elif space == "quad-mumford":
        if args.g is None:
            raise ParseError("--g is required for the quadratic family")
        table = quad_mumford_table(args.g, phi_poly)
    elif space in ("toda-linear", "toda-quadratic", "km"):
        if args.n is None:
            raise ParseError("--n is required for lattice brackets")
        kind = {"toda-linear": "linear", "toda-quadratic": "quadratic",
                "km": "km"}[space]
        table = toda_bracket_table(kind, args.n)
    else:
        raise ParseError(f"unknown space {space!r}")
    payload = {"space": space, "phi": format_poly(phi_poly),
               "coordinates": list(table.names),
               "entries": table.entry_strings()}
    if args.point:
        data = _load_json_arg(args.point)
        if space.startswith("toda") or space == "km":
            point = TodaPoint.from_json(data)
            values = toda_point_values(point)
            if space == "km" and not any(point.b):  # a point of the b = 0 slice
                values = values[:point.n]
            names = toda_coordinate_names(point.n)[:len(values)]
        else:
            triple = MumfordTriple.from_json(data)
            values = point_values(triple)
            names = list(phase_coordinates(triple.flavor, triple.index).names)
        if names != table.names:
            raise InvariantError("point-space", "the point does not lie in this phase space")
        payload["values"] = [[format_rational(v) for v in row]
                             for row in table.at(values)]
    return payload


def _cmd_flow(args) -> dict:
    data = _load_json_arg(args.point)
    if args.system in ("km", "toda"):
        point = KMPoint.from_json(data) if args.system == "km" else TodaPoint.from_json(data)
        if args.system == "toda" and args.index is None:
            raise ParseError("--index is required for toda flows")
        selector = args.index
    else:
        point = MumfordTriple.from_json(data)
        if args.y is None:
            raise ParseError("--y is required for mumford/prym flows")
        selector = parse_rational(args.y)
    trajectory = numerics.integrate(args.system, point, selector, args.t, args.step)
    if args.csv:
        _write(args.csv, trajectory.csv())
    return trajectory.drift_summary()


def _cmd_example5(args) -> dict:
    return example5.example5_report(parse_rational(args.k), parse_rational(args.l),
                                    parse_rational(args.beta), parse_rational(args.delta),
                                    args.order)


def _cmd_verify(args) -> dict:
    results = verify.run_suite(args.suite, args.seed)
    for result in results:
        sys.stderr.write(result.line() + "\n")
    payload = {"suite": args.suite, "seed": args.seed,
               "passed": all(r.passed for r in results),
               "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                           "elapsed": r.elapsed} for r in results]}
    if not payload["passed"]:
        raise InvariantError("verification", json.dumps(payload, sort_keys=True))
    return payload


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="prymlab",
                     description="exact-arithmetic laboratory for Mumford, "
                                 "prym and periodic lattice systems")
    parser.add_argument("--output", help="write the JSON artifact to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="enumerate the admissible pole sets")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("indicial", help="all indicial-equation solutions")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_indicial)

    p = sub.add_parser("kowalevski", help="Kowalevski matrix report for a pole set")
    p.add_argument("n", type=int)
    p.add_argument("--A", required=True, help="comma-separated cells, e.g. 1,2")
    p.set_defaults(handler=_cmd_kowalevski)

    p = sub.add_parser("balance", help="Laurent solution attached to a pole set")
    p.add_argument("n", type=int)
    p.add_argument("--A", required=True)
    p.add_argument("--params", help='JSON of free-slot values, e.g. {"a2.1": "1"}')
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(handler=_cmd_balance)

    p = sub.add_parser("phi", help="map a lattice point into the Mumford space")
    p.add_argument("--point", required=True, help="inline JSON or @file")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("phi-inverse", help="reconstruct the lattice preimage")
    p.add_argument("--triple", required=True, help="inline JSON or @file")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_phi_inverse)

    p = sub.add_parser("bracket", help="exact coordinate bracket table")
    p.add_argument("--space", required=True, choices=_BRACKET_SPACES)
    p.add_argument("--phi", default="1", help="polynomial text, ascending coefficients")
    p.add_argument("--g", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--point", help="evaluate the table at this point")
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("flow", help="integrate a flow and report drift")
    p.add_argument("--system", required=True, choices=("km", "toda", "mumford", "prym"))
    p.add_argument("--point", required=True)
    p.add_argument("--index", type=int, help="hierarchy index for lattice flows")
    p.add_argument("--y", help="Lax parameter for mumford/prym flows")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--csv", help="dump the trajectory to this CSV file")
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("example5", help="the five-particle worked example report")
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--beta", default="1")
    p.add_argument("--delta", default="2")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(handler=_cmd_example5)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.handler(args)
        _emit(payload, args.output)
        return EXIT_OK
    except ParseError as exc:
        _emit({"error": {"kind": "input", "message": str(exc)}}, None)
        return EXIT_INPUT
    except InvariantError as exc:
        _emit({"error": {"kind": "invariant", "invariant": exc.invariant,
                         "message": str(exc)}}, None)
        return EXIT_INVARIANT
    except PrymlabError as exc:
        _emit({"error": {"kind": "other", "message": str(exc)}}, None)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
