"""Floating-point integration of the implemented flows, with first
integrals monitored along every trajectory.

All exact data is converted to floats once, at trajectory start (a value
beyond the float range violates "float-range"); the conservation
baselines are the float values at t = 0, so reported drift isolates
integrator error from representation error.  The integrator is the
classical fixed-step fourth-order one-step method; runs are short and
deterministic reproducibility of the drift numbers matters more than
adaptivity.  Mumford and Prym runs share one field, mumford.mumford_tangent
read on the coordinate slots of the phase space (on a Prym space that
reading is the reduced field).  integrate and endpoint share the argument
checks, the set-up of each system and one stepping loop, which stops at
the first state that leaves the overflow guard or turns NaN (expected
behaviour near the Painleve poles of the lattice fields): integrate
truncates and flags the trajectory there, and endpoint, which returns the
final state alone, raises BlowUpError ("blow-up").

integrate keeps every state and samples the first integrals after every
step.  Their names are fixed once per run, each monitor returns its
values as a list in that order, and the step loop appends them to one
column per integral.  Once the run ends, each column gives its
integral's drift (the largest distance from its value at t = 0) and the
first step at which the drift peaked.  Trajectory.drift_summary()
reports, per integral, the drift, the step and time of its peak, and the
relative drift d / max(1, |value at t = 0|).

The step, and integrate's monitor where it allows, run as straight-line
code.  Once per run the function is traced: run once on recorders
(_Recorder), a scalar type that records each +, -, *, / and negation it
meets and refuses to read a value (a comparison, truth, abs, float(),
hashing), so no branch on a value can be baked in.  The recording is
emitted as one Python function over generated names and compiled: a
value read once is written, parenthesized, into the expression that
reads it, and the rest live in a few dozen locals, each taken again once
its value is dead.  Its constants (y, h, the 0.0 and 1.0 of the
coefficient lists, the int 0 and 2 of the kernels, inf, nan and -0.0
alike) reach it as objects in its namespace, never as text.  It runs
each of the kernel's float operations once, on the same operands, so
every state and integral is bit for bit the kernel's, and the field
keeps its one implementation: the recorder is one more scalar type run
through mumford.mumford_tangent, toda.km_field and
toda.hierarchy_commutator.  The KM monitor traces (its zero shifts are
constants), and so does the momentum monitor of Mumford and Prym runs,
which trims and skips rows and columns by the shape of the phase space,
read once per run, so those runs are straight-line code end to end.
The Toda monitor (tridiag_run tests the traced b_k against 0) compares
values, so it stays on the kernel, as does a field that branches on a
value and any trace past MAX_TRACE_OPS operations.  Each drift is read
off the largest and smallest value of its column (see _peak).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count
from operator import indexOf

from .algebra import _product
from .errors import BlowUpError, InvariantError
from .mumford import (MUMFORD_FLAVORS, PRYM_FLAVORS, MumfordTriple, _slot_codec, mumford_tangent,
                      point_values)
from .toda import (KMPoint, TodaPoint, _alternating_products, char_coeffs,
                   hierarchy_commutator, km_field)

BLOWUP_GUARD = 1e12
MAX_STEPS = 100_000  # every state is kept, so this also bounds the memory of a run


@dataclass
class Trajectory:
    system: str
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    conserved: dict = field(default_factory=dict)
    drift: dict = field(default_factory=dict)
    peak_step: dict = field(default_factory=dict)  # the step at which each drift peaked
    truncated: bool = False
    note: str = ""
    steps_requested: int = 0

    def endpoint(self) -> list:
        return self.states[-1]

    def csv(self) -> str:
        names = list(self.conserved)
        width = len(self.states[0]) if self.states else 0
        header = ["t"] + [f"x{i}" for i in range(width)] + names
        lines = [",".join(header)]
        for idx, t in enumerate(self.times):
            row = [repr(t)] + [repr(x) for x in self.states[idx]]
            row += [repr(self.conserved[n][idx]) for n in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def drift_summary(self) -> dict:
        peak = {k: {"step": i, "t": self.times[i],
                    "relative_drift": self.drift[k] / max(1.0, abs(self.conserved[k][0]))}
                for k, i in self.peak_step.items()}
        return {"system": self.system, "steps": len(self.times) - 1,
                "steps_requested": self.steps_requested,
                "truncated": self.truncated, "note": self.note,
                "drift": dict(self.drift), "peak": peak}


def _floats(values) -> list[float]:
    """The exact values as floats; one beyond the float range raises
    InvariantError("float-range") with its value to 6 digits."""
    out = []
    for x in values:
        try:
            out.append(float(x))
        except OverflowError:
            q = Fraction(x)
            e = int(math.log10(abs(q.numerator)) - math.log10(q.denominator))
            raise InvariantError("float-range", f"{float(q / 10 ** e):.6g}e{e:+d} is beyond"
                                 " the float range") from None
    return out


def _rk4_step(f, x, h):
    k1 = f(x)
    k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + h / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


# ---------------------------------------------------------------------------
# straight-line code: a function of the state, recorded once and compiled
# ---------------------------------------------------------------------------

MAX_TRACE_OPS = 10_000  # compiling takes some 7 us per operation; a longer trace is given up
MAX_NESTING = 32  # parentheses around an inlined value, well under the parser's limit of 200


class _Refused(Exception):
    """The traced code asked for a value, or the trace grew past MAX_TRACE_OPS."""


def _recording(op: str, reflected: bool = False):
    """_Recorder's method for one binary operator (reflected: the other
    operand stands on the left)."""
    def method(self, other):
        if type(other) not in (_Recorder, float, int):
            return NotImplemented
        return self.tape.record(other, op, self) if reflected else self.tape.record(self, op, other)
    return method


def _refuse(self, *args):
    raise _Refused(f"the traced code reads value {self.index}")


class _Recorder:
    """A float yet to come, value `index` of its tape: arithmetic on it
    appends an operation to the tape and gives the recorder of the result.
    Anything that reads the value (a comparison, truth, abs, float(),
    hashing) raises _Refused, so no branch on a value can be baked into a
    trace."""

    __slots__ = ("tape", "index")

    def __init__(self, tape, index):
        self.tape, self.index = tape, index

    def __neg__(self):
        return self.tape.record(None, "-", self)

    __add__, __radd__ = _recording("+"), _recording("+", True)
    __sub__, __rsub__ = _recording("-"), _recording("-", True)
    __mul__, __rmul__ = _recording("*"), _recording("*", True)
    __truediv__, __rtruediv__ = _recording("/"), _recording("/", True)
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __bool__ = __abs__ = __float__ = __hash__ = _refuse


class _Tape:
    """One trace: `ops` holds (left, op, right) per recorded operation, in
    order, with a value as its index (the inputs come first, then one value
    per operation) and a constant as its generated name c<k>.  The constant
    itself goes into `constants`, to reach the compiled code as a global,
    never as text."""

    def __init__(self):
        self.ops, self.constants, self._named, self.values = [], {}, {}, 0

    def value(self) -> _Recorder:
        self.values += 1
        return _Recorder(self, self.values - 1)

    def operand(self, x):
        if type(x) is _Recorder:
            return x.index
        name = self._named.get(id(x))  # constants stays alive, so ids are not reused
        if name is None:
            name = self._named[id(x)] = f"c{len(self.constants)}"
            self.constants[name] = x
        return name

    def record(self, left, op, right) -> _Recorder:
        if op == "*":  # x * 1 (float or int 1) is x bit for bit, signed zeros, inf and NaN too
            for x, one in ((left, right), (right, left)):
                if type(one) in (float, int) and one == 1:
                    return x
        if len(self.ops) == MAX_TRACE_OPS:
            raise _Refused(f"the trace passes {MAX_TRACE_OPS} operations")
        self.ops.append((None if left is None else self.operand(left), op, self.operand(right)))
        return self.value()


def _emit(fn, width: int):
    """(source, constants) of fn traced on a state of `width` floats: one
    function `traced(s)` that unpacks s, runs every recorded operation on
    its own operands, and returns fn's outputs as a list.  Operations
    between two constants ran while tracing, as fn runs them on every call.

    The code is written as expression trees: a value that is read exactly
    once is written, in parentheses, into the expression that reads it, so
    it costs no store and no load.  A value read more than once, never
    read, or whose expression would nest deeper than MAX_NESTING gets a
    statement of its own, in the order of recording, and a local r<k>; a
    local is taken again once the value it held has been read for the last
    time, counted at the statement that writes the reading expression, so
    that a call sets up and clears a few dozen locals, not one per
    operation.  Every operation still runs once on the same operands, so
    the bits are fn's and a call raises where fn raises (a division by a
    zero is the one error float arithmetic raises).  Raises _Refused, or
    whatever else fn raised on the recorders."""
    tape = _Tape()
    inputs = [tape.value() for _ in range(width)]
    outputs = [tape.operand(y) for y in fn(inputs)]
    ops, end = tape.ops, tape.values  # value `end` stands for the return
    reads, reader = [0] * end, [end] * end
    for value, (left, _, right) in enumerate(ops, width):
        for x in (left, right):
            if type(x) is int:
                reads[x] += 1
                reader[x] = value
    for x in outputs:
        if type(x) is int:
            reads[x] += 1
    depth = [0] * end  # the nesting of an inlined value's expression; 0 for a local
    line = [-1] * width + [0] * len(ops) + [0]  # where each value's expression is written
    statements = 0
    for value, (left, _, right) in enumerate(ops, width):
        nesting = 1 + max(depth[left] if type(left) is int else 0,
                          depth[right] if type(right) is int else 0)
        if reads[value] == 1 and nesting <= MAX_NESTING:
            depth[value] = nesting
        else:
            line[value], statements = statements, statements + 1
    line[end] = statements
    last = [-1] * end  # the line that reads each local value last
    for x in outputs:
        if type(x) is int:
            last[x] = statements
    for value in reversed(range(width, end)):
        if depth[value]:
            line[value] = line[reader[value]]
        left, _, right = ops[value - width]
        for x in (left, right):
            if type(x) is int and not depth[x] and last[x] < line[value]:
                last[x] = line[value]
    dying = [[] for _ in range(statements + 1)]  # the locals read for the last time on each line
    for x, at in enumerate(last):
        if at >= 0:
            dying[at].append(x)
    text, free, fresh = [None] * end, [], (f"r{k}" for k in count())

    def store(value):  # the local of a value whose statement is on line[value]
        text[value] = free.pop() if free else next(fresh)
        if last[value] <= line[value]:  # never read
            free.append(text[value])
        return text[value]

    word = lambda x: x if type(x) is str else text[x]
    body = [f"[{', '.join(map(store, range(width)))}] = s"]
    for value, (left, op, right) in enumerate(ops, width):
        expr = f"{op}{word(right)}" if left is None else f"{word(left)} {op} {word(right)}"
        if depth[value]:
            text[value] = f"({expr})"
            continue
        free += [text[x] for x in dying[line[value]]]
        body.append(f"{store(value)} = {expr}")
    body.append(f"return [{', '.join(map(word, outputs))}]")
    return "def traced(s):\n    " + "\n    ".join(body) + "\n", tape.constants


def _traced(fn, width: int):
    """fn on a list of `width` floats as compiled straight-line code, bit
    for bit fn's floats (the same operations on the same operands in the
    same order); None where the trace gave up.  Whatever stops a trace, the
    caller keeps fn itself, which raises what the run would raise."""
    try:
        source, namespace = _emit(fn, width)
    except Exception:
        return None
    exec(source, namespace)
    return namespace["traced"]


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def _toda_rhs(state, n, index):
    """X_index at the float state a + b (see toda.hierarchy_commutator)."""
    C = hierarchy_commutator(state[:n], state[n:], index)
    return C[1] + C[0]


def _mumford_rhs(flavor, g, y):
    """X_y on float states (see mumford.mumford_tangent), with the layout of
    the phase space resolved once.  On a Prym flavor the slots read are the
    Prym ones, which gives the reduced field (see prym.prym_flow)."""
    lists, read = _slot_codec(flavor, g)
    return lambda state: read(*mumford_tangent(*lists(state, 0.0, 1.0), y))


# ---------------------------------------------------------------------------
# conserved quantities: each monitor returns its values in the order of
# the names given for the run
# ---------------------------------------------------------------------------

def _lattice_names(n, km=False):
    names = [f"K{j}" for j in range(n)] + ["prod_a"]
    if km and n % 2 == 0:
        names += ["P_odd", "P_even"]
    return names


def _lattice_invariants(n, km=False):
    """The monitor of a lattice run, on the state a + b of a Toda lattice or
    a of the KM slice, whose zero shifts b are built here once per run."""
    zeros = [0.0] * n

    def invariants(state):
        a, b = (state, zeros) if km else (state[:n], state[n:])
        out = [2.0 * c for c in char_coeffs(a, b, 0.0)[:n]]
        out.append(math.prod(a, start=1.0))
        if km and n % 2 == 0:
            out += _alternating_products(a, 1.0)
        return out
    return invariants


def _momentum_invariants(flavor: str, g: int, width: int):
    """The monitor of a Mumford or Prym run: H0, ..., H{deg u + deg w}, the
    coefficients of u w + v^2, on a state of `width` coordinates.

    Its trim and its skips are read off the shape of the phase space once,
    never off a value: the lists of _slot_codec hold the constant zero in
    every slot that is not a coordinate and one at the tops of u and w, so
    u, v and w drop their trailing constant zeros, and the products of
    algebra._product run only the rows and columns that are not constant
    zeros.  No value is compared with anything, so the monitor traces.  A
    slot of u w + v^2 that no product reaches is identically zero on the
    phase space (the odd slots of a Prym space, where u w and v^2 are
    even) and reads 0.0; a slot that only v^2 reaches (slot 0 of an even
    Prym space) reads its v^2 sum.

    On a finite state it gives the bits of Poly(u) * Poly(w) + Poly(v) *
    Poly(v), which trims v by value, skips the rows that equal 0 and runs
    every column, and integrate passes it no other state (the start from
    _floats, every later state inside BLOWUP_GUARD):
      - a state slot that is exactly +-0.0 times a finite y, and a finite
        state slot or one times a constant zero, is +-0.0;
      - a sum starts from the int 0, so it is never -0.0, and adding +-0.0
        changes no bit of it (an inf or nan stays what it is), so the
        terms skipped change no sum, and a sum of them alone is 0.0;
      - an untrimmed zero top of v only adds +0.0 to slots of u w;
      - the top of u w is one times one, and v^2 is shorter than u w
        (deg w > deg u), so nothing is trimmed there and the length is
        fixed."""
    lists = _slot_codec(flavor, g)[0]
    shape = [[k for k, m in enumerate(c) if m] for c in lists([1] * width, 0, 1)]
    ends = [rows[-1] + 1 if rows else 0 for rows in shape]
    u_rows, v_rows, w_cols = shape
    uw_slots = {i + j for i in u_rows for j in w_cols}
    vv_slots = {i + j for i in v_rows for j in v_rows}
    zero_slots = [k for k in range(ends[0] + ends[2] - 1) if k not in uw_slots | vv_slots]

    def invariants(state):
        u, v, w = (c[:end] for c, end in zip(lists(state, 0.0, 1.0), ends))
        out = _product(u, w, u_rows, w_cols)
        for k, c in enumerate(_product(v, v, v_rows, v_rows)):
            if k in vv_slots:
                out[k] = out[k] + c if k in uw_slots else c
        for k in zero_slots:
            out[k] = 0.0
        return out
    return invariants


def _peak(column) -> tuple:
    """(drift, step) of one sampled integral: the largest |value - value at
    t = 0| and the first step that reaches it, as a running maximum from
    0.0 finds them (a NaN distance never sets a peak).

    The drift is read off the largest and smallest entries, hi and lo, in
    C-level passes.  max and min start from the value at t = 0, base, and
    no entry compares past a NaN, so a NaN entry never becomes hi or lo
    (and a NaN base makes every distance NaN, hence drift 0.0).  Round to
    nearest is monotone in each argument of a subtraction and fl(a - b) =
    -fl(b - a), so every |fl(x - base)| is at most fl(hi - base) for x >=
    base and fl(base - lo) for x <= base, and both are reached; a NaN
    among them (inf - inf) is a NaN distance, which max from 0.0 skips."""
    base = column[0]
    peak = max(0.0, max(column) - base, base - min(column))
    return peak, indexOf(map(abs, map(base.__rsub__, column)), peak) if peak else 0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _flow(system: str, point, selector, t_end: float, step: float):
    """(start state, field, step count, monitor, integral names) of a run:
    the argument checks and the set-up that integrate and endpoint share."""
    if not (0 < step < math.inf and 0 < t_end < math.inf):
        raise InvariantError("integration", "step and t_end must be positive and finite")
    if t_end / step > MAX_STEPS:
        raise InvariantError("step-count", f"t_end / step exceeds {MAX_STEPS} steps")
    if system == "km":
        if not isinstance(point, KMPoint):
            raise InvariantError("point-type", "km integration needs a KMPoint")
        n = point.n
        state = _floats(point.a)
        rhs = km_field
        invariants = _lattice_invariants(n, km=True)
        names = _lattice_names(n, km=True)
    elif system == "toda":
        if not isinstance(point, TodaPoint):
            raise InvariantError("point-type", "toda integration needs a TodaPoint")
        n = point.n
        index = 0 if selector is None else int(selector)
        state = _floats(chain(point.a, point.b))
        rhs = lambda s: _toda_rhs(s, n, index)
        invariants = _lattice_invariants(n)
        names = _lattice_names(n)
    elif system in ("mumford", "prym"):
        if not isinstance(point, MumfordTriple):
            raise InvariantError("point-type", "flow needs a MumfordTriple")
        flavor = point.flavor
        g = point.index
        y, = _floats([selector])
        state = _floats(point_values(point))
        if system == "prym" and flavor not in PRYM_FLAVORS:
            raise InvariantError("flavor", "prym integration needs a prym point")
        if system == "mumford" and flavor not in MUMFORD_FLAVORS:
            raise InvariantError(
                "flavor", "the ambient flow is not tangent to the parity"
                " locus; use system='prym' for prym points")
        rhs = _mumford_rhs(flavor, g, y)
        invariants = _momentum_invariants(flavor, g, len(state))
        names = [f"H{j}" for j in range(point.u.degree + point.w.degree + 1)]
    else:
        raise InvariantError("system", f"unknown system {system!r}")
    if system in ("km", "toda") and n < 1:
        raise InvariantError("size", "a lattice needs n >= 1")
    if system == "toda" and not 1 <= index <= n - 1:
        raise InvariantError("hierarchy-index", f"need 1 <= index <= {n - 1}")
    return state, rhs, int(round(t_end / step)), invariants, names


def _steps(rhs, state, step: float, nsteps: int):
    """The state after each of nsteps steps.  The first state that leaves
    the overflow guard or turns NaN raises BlowUpError instead."""
    advance = lambda x: _rk4_step(rhs, x, step)
    advance = _traced(advance, len(state)) or advance
    inside = BLOWUP_GUARD.__ge__
    for i in range(1, nsteps + 1):
        state = advance(state)
        if not all(map(inside, map(abs, state))):  # also true for NaN
            reason = "became NaN" if any(map(math.isnan, state)) else "exceeded overflow guard"
            raise BlowUpError(f"state {reason} at step {i}", step)
        yield state


def integrate(system: str, point, selector, t_end: float, step: float) -> Trajectory:
    """Integrate a named flow with the classical fourth-order method.

    system: "km" (basic Volterra field; selector ignored), "toda"
    (selector = hierarchy index), "mumford" or "prym" (selector = the Lax
    parameter y).  Conserved quantities are sampled at every step and the
    drift against t = 0 is reported per integral.  t_end and step must be
    positive and finite ("integration"), t_end / step at most MAX_STEPS
    ("step-count"), and a lattice needs n >= 1 ("size").  A run that
    leaves the overflow guard or turns NaN is truncated at the last good
    state, with a note that says why.  The monitor must give one value per
    integral name at t = 0 ("monitor").
    """
    state, rhs, nsteps, invariants, names = _flow(system, point, selector, t_end, step)
    traj = Trajectory(system=system, steps_requested=nsteps)
    invariants = _traced(invariants, len(state)) or invariants
    columns = [[value] for value in invariants(state)]
    if len(columns) != len(names):  # checked once: the step loop zips values to columns
        raise InvariantError("monitor", f"the monitor gave {len(columns)} values for"
                             f" {len(names)} integrals")
    states = [state]
    try:
        for state in _steps(rhs, state, step, nsteps):
            states.append(list(state))  # exact size: a comprehension's list is over-allocated
            for column, value in zip(columns, invariants(state)):
                column.append(value)
    except BlowUpError as exc:
        traj.truncated, traj.note = True, exc.note
    traj.states = states
    traj.times = [i * step for i in range(len(states))]
    for name, column in zip(names, columns, strict=True):
        traj.conserved[name] = column
        traj.drift[name], traj.peak_step[name] = _peak(column)
    return traj


def endpoint(system: str, point, selector, t_end: float, step: float) -> list:
    """The state at t_end of integrate's run, bit for bit, with no integral
    sampled and no state kept.  The arguments are checked as integrate
    checks them; a run that integrate would truncate raises BlowUpError
    (invariant "blow-up"), naming the step at which it left the guard and
    the step size."""
    state, rhs, nsteps, _, _ = _flow(system, point, selector, t_end, step)
    for state in _steps(rhs, state, step, nsteps):
        pass
    return state
