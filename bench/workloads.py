"""The benchmark's three workloads, built from a seed through prymlab's
public API.

A workload is a list of jobs.  `setup` draws every input with
`prymlab.sampling` (and imports what a pass would otherwise import
lazily), so every pass of one run repeats the same work.  A job's `run`
is the timed call into the library; its `check` judges the output
afterwards, untimed, and returns one boolean per exact verdict.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from prymlab import morphism, numerics, painleve, sampling, toda, verify
from prymlab.algebra import Poly
from prymlab.errors import InvariantError
from prymlab.mumford import flow_values, mumford_flow, point_values
from prymlab.prym import prym_flow
from reference import BURST_GAP_S, REFERENCE_S, reference_seconds

# float-flows: every trajectory takes a fixed number of RK4 steps, of a length
# set by the exact field at the start point (see _step); its relative drift
# must stay within DRIFT_BOUND.
STEP_PER_RATE = 1e-3
DRIFT_BOUND = 1e-6
TODA_STEPS = 100
FLOW_STEPS = 3000

# exact-scale: lattice sizes of the phi points and the Laurent order.
PHI_SIZES = (24, 12, 12, 12, 12)
SIGMA_N = 8
LAURENT_ORDER = 20
FLOW_N = 12


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    span: str | None = None  # traced runs open a span of this name around run


@dataclass
class PassResult:
    wall: float               # raw seconds inside the jobs
    calibrated: float | None  # the same at the reference speed (see reference.py)
    job_seconds: list
    verdicts: list            # (job name, passed) for every exact verdict


def run_pass(jobs: list[Job], tracer=None, calibrate: bool = False) -> PassResult:
    """Run every job once, then judge the outputs and drop them, so no pass
    carries the heap of the one before.  A raised InvariantError is kept as
    the job's output (and judged a failure) instead of ending the pass.
    With `calibrate`, the reference loop is timed before the first job,
    after the last, and between jobs at most BURST_GAP_S apart; each job is
    rescaled by the mean of the two measurements around it."""
    gc.collect()
    outputs, seconds, refs, ref_index = [], [], [], []
    if calibrate:
        refs.append(reference_seconds())
    last_ref = time.perf_counter()
    root = tracer.open(tracer.ROOT) if tracer else None
    for job in jobs:
        if calibrate and time.perf_counter() - last_ref >= BURST_GAP_S:
            refs.append(reference_seconds())
            last_ref = time.perf_counter()
        ref_index.append(len(refs) - 1)
        job_start = time.perf_counter()
        span = tracer.open(job.span) if tracer and job.span else None
        try:
            out = job.run()
        except InvariantError as exc:
            out = exc
        finally:
            if span is not None:
                tracer.close(span)
        seconds.append(time.perf_counter() - job_start)
        outputs.append(out)
    if root is not None:
        tracer.close(root)
    calibrated = None
    if calibrate:
        refs.append(reference_seconds())
        calibrated = sum(t * REFERENCE_S * 2 / (refs[i] + refs[i + 1])
                         for t, i in zip(seconds, ref_index))
    return PassResult(sum(seconds), calibrated, seconds, _verdicts(jobs, outputs))


def _verdicts(jobs: list[Job], outputs: list) -> list[tuple[str, bool]]:
    """A job that raised counts as one failed verdict."""
    out = []
    for job, result in zip(jobs, outputs):
        if isinstance(result, InvariantError):
            out.append((job.name, False))
        else:
            out.extend((job.name, bool(ok)) for ok in job.check(result))
    return out


# ---------------------------------------------------------------------------
# verify: the acceptance suites, one at a time, as `verify --suite all`
# ---------------------------------------------------------------------------

def _verify(seed: int) -> list[Job]:
    import numpy  # noqa: F401 - the kowalevski suite imports it lazily

    return [Job(name, lambda suite=suite: suite(seed),
                lambda results: [r.passed for r in results], span=f"verify.{name}")
            for name, suite in verify.SUITES.items()]


# ---------------------------------------------------------------------------
# exact-scale: exact work past the acceptance sizes
# ---------------------------------------------------------------------------

FOUR = Poly([Fraction(4)])


def _phi_all_m(point):
    images = [morphism.phi(point, m) for m in range(1, point.n + 1)]
    return images, morphism.phi_inverse(images[-1].triple, point.n)


def _phi_ok(point, result) -> list:
    images, back = result
    fiber = [img.triple.u * img.triple.w + img.triple.v * img.triple.v
             == img.p * img.p - FOUR for img in images]
    return fiber + [back.a == point.a and back.b == point.b]


def _laurent(balance, values):
    slots = painleve.free_slots(SIGMA_N, balance, LAURENT_ORDER)
    series = painleve.laurent_balance(SIGMA_N, balance, dict(zip(slots, values)),
                                      LAURENT_ORDER)
    return painleve.km_residual(series)


def _residual_ok(residual) -> list:
    window = LAURENT_ORDER - 2  # a^(k) through k = order-1, so d/dt and products through order-2
    return [all(r.known_through() == window and r.is_zero_through(window)
                for r in residual)]


def _toda_flow_ok(point, tangent) -> list:
    """tr L and prod a are conserved by every hierarchy field."""
    da, db = tangent
    return [sum(db) == 0 and sum(d / a for d, a in zip(da, point.a)) == 0]


def _exact_scale(seed: int) -> list[Job]:
    rng = sampling.rng_from_seed(seed)
    points = [sampling.toda_point(rng, n) for n in PHI_SIZES]
    balances = painleve.indicial_solutions(SIGMA_N)
    # a balance has at most n free slots (its non-negative Kowalevski exponents)
    values = [[sampling.rational(rng) for _ in range(SIGMA_N)] for _ in balances]
    flow_point = sampling.toda_point(rng, FLOW_N)
    phi_x = Poly([Fraction(0), Fraction(1)])

    jobs = [Job(f"phi n={p.n}", lambda p=p: _phi_all_m(p),
                lambda r, p=p: _phi_ok(p, r)) for p in points]
    jobs.append(Job("quad jacobi g=3", lambda: morphism.quad_mumford_table(3, phi_x).jacobi_holds(),
                    lambda ok: [ok is True]))
    jobs += [Job(f"laurent A={b.A}", lambda b=b, v=v: _laurent(b, v), _residual_ok)
             for b, v in zip(balances, values)]
    jobs += [Job(f"toda_flow i={i}", lambda i=i: toda.toda_flow(flow_point, i),
                 lambda t: _toda_flow_ok(flow_point, t)) for i in range(1, FLOW_N)]
    return jobs


# ---------------------------------------------------------------------------
# float-flows: RK4 trajectories from seeded points
# ---------------------------------------------------------------------------

def _step(state, field) -> float:
    """STEP_PER_RATE over the larger of the field's relative speed and the
    state's size (the Jacobian of a field of degree >= 2 grows with it)."""
    scale = max(1.0, max(abs(float(x)) for x in state))
    return STEP_PER_RATE / max(scale, max(abs(float(f)) for f in field) / scale)


def _relative_drift(traj) -> float:
    return max(d / max(1.0, abs(traj.conserved[k][0])) for k, d in traj.drift.items())


def _trajectory(system, point, selector, step, steps) -> Job:
    def check(traj):
        return [not traj.truncated and len(traj.times) == steps + 1
                and _relative_drift(traj) <= DRIFT_BOUND]
    return Job(f"{system} rk4", lambda: numerics.integrate(system, point, selector,
                                                          steps * step, step), check)


def _float_flows(seed: int) -> list[Job]:
    rng = sampling.rng_from_seed(seed)
    lattice = sampling.toda_point(rng, 10)
    km = sampling.km_point(rng, 20)
    # phi images of lattice points lie on compact real tori, so the Mumford
    # and Prym flows from them stay bounded
    mumford = morphism.phi(sampling.toda_point(rng, 3), 3).triple    # even Mumford, g = 2
    prym = morphism.phi(sampling.km_point(rng, 5).embed(), 5).triple  # odd Prym, n = 2
    y = sampling.rational(rng)
    return [
        _trajectory("toda", lattice, 2,
                    _step(lattice.a + lattice.b, sum(toda.toda_flow(lattice, 2), [])),
                    TODA_STEPS),
        _trajectory("km", km, None, _step(km.a, toda.km_field(km.a)), FLOW_STEPS),
        _trajectory("mumford", mumford, y,
                    _step(point_values(mumford),
                          flow_values(mumford.flavor, 2, *mumford_flow(mumford, y))),
                    FLOW_STEPS),
        _trajectory("prym", prym, y,
                    _step(point_values(prym),
                          flow_values(prym.flavor, 2, *prym_flow(prym, y))),
                    FLOW_STEPS),
    ]


WORKLOADS = {"verify": _verify, "exact-scale": _exact_scale, "float-flows": _float_flows}


def setup(name: str, seed: int) -> list[Job]:
    return WORKLOADS[name](seed)
