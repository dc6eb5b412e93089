import io
import math
import random
import re
from contextlib import redirect_stdout

import pytest
from hypothesis import assume, given, settings, strategies as st

from ammix import (
    CurveParams,
    Family,
    MarketState,
    MixSpec,
    Parabolic,
    PowerLaw,
    PriceVector,
    Uniform,
    arbitrage_state,
    erli_discrepancy,
    impermanent_loss,
    portfolio_value,
    reduced_value,
    point_at,
    spot_rate,
)
from ammix import analysis
from ammix.analysis import _certified_convex
from ammix.cli import run_command
from ammix.errors import (
    AmmixError,
    ConvergenceError,
    InvalidCurveError,
    InvalidParameterError,
    UnsupportedCurveError,
)
from ammix.schedules import S_MAX, S_MIN, StableswapDynamic

FAMILIES = [Family.ARITHMETIC, Family.GEOMETRIC, Family.HOMOTOPY]


# --- impermanent_loss ---------------------------------------------------------

def test_il_nothing_changed():
    report = impermanent_loss(PriceVector(1, 1), MarketState(1, 1), MarketState(1, 1))
    assert report.il == 0.0


def test_il_cpmm_drift_example():
    report = impermanent_loss(PriceVector(4, 1), MarketState(1, 1), MarketState(0.5, 2))
    assert report.il == pytest.approx(-0.2, rel=1e-12)
    assert report.held_value == pytest.approx(5.0)
    assert report.pool_value == pytest.approx(4.0)


def test_il_identical_quantities():
    report = impermanent_loss(PriceVector(2, 2), MarketState(1, 1), MarketState(1, 1))
    assert report.il == 0.0


# --- arbitrage_state ----------------------------------------------------------

def test_arbitrage_cpmm_example(unit_params):
    state = arbitrage_state(unit_params, MixSpec.arithmetic(1.0), PriceVector(4, 1))
    assert state.x == pytest.approx(0.5, rel=1e-9)
    assert state.y == pytest.approx(2.0, rel=1e-9)


def test_arbitrage_at_initial_prices(unit_params):
    for family in FAMILIES:
        for t in (0.0, 0.5, 1.0):
            state = arbitrage_state(unit_params, MixSpec(family, Uniform(t)), PriceVector(1, 1))
            assert state.x == pytest.approx(1.0, rel=1e-7)
            assert state.y == pytest.approx(1.0, rel=1e-7)


def test_arbitrage_csmm_endpoint(unit_params):
    # price ratio beyond the supported single rate: the infimum sits at the
    # (clamped) endpoint where currency 1 is exhausted
    state = arbitrage_state(unit_params, MixSpec.arithmetic(0.0), PriceVector(4, 1))
    assert state.x == pytest.approx(0.0, abs=1e-9)
    assert state.y == pytest.approx(2.0, abs=1e-9)


def test_arbitrage_matches_spot(unit_params, pool_params):
    rng = random.Random(17)
    for params in (unit_params, pool_params):
        base_rate = params.a / params.b
        for _ in range(8):
            family = rng.choice(FAMILIES)
            t = rng.uniform(0.2, 1.0)
            mix = MixSpec(family, Uniform(t))
            r = base_rate * rng.uniform(0.3, 3.0)
            state = arbitrage_state(params, mix, PriceVector(r, 1.0))
            assert spot_rate(params, mix, state) == pytest.approx(r, rel=1e-9)


def test_arbitrage_rejects_nonconvex_schedule(unit_params):
    # a low-bias parabola with a raised center bends the curve concave while
    # keeping t inside [0, 1]
    bad = Parabolic(bias=0.05, center=0.15)
    from ammix import check_convexity
    assert not check_convexity(unit_params, bad).passed
    with pytest.raises(UnsupportedCurveError):
        arbitrage_state(unit_params, MixSpec.scheduled(bad), PriceVector(2, 1))


def _grid_min_value(params, mix, p, n=100_000):
    # brute-force infimum of P . X over the curve trace
    from ammix.parametrize import point_at
    best = math.inf
    for i in range(1, n):
        s = i / n
        st = point_at(params, mix, s)
        v = p.p1 * st.x + p.p2 * st.y
        if v < best:
            best = v
    return best


def test_arbitrage_agrees_with_grid(unit_params):
    # dense-grid minimization oracle, coarse enough to stay fast here; the
    # acceptance suite runs the full 1e5-sample version
    for mix in (MixSpec.arithmetic(1.0), MixSpec.homotopy(0.5), MixSpec.geometric(0.7)):
        for p in (PriceVector(4, 1), PriceVector(0.7, 1.3)):
            got = portfolio_value(unit_params, mix, p)
            want = _grid_min_value(unit_params, mix, p, n=20_000)
            assert got <= want + 1e-9
            assert got == pytest.approx(want, rel=1e-6)


# --- the arbitrage solve against the bisection it replaced --------------------

def _reference_bisect(below, lo: float, hi: float, atol: float = 0.0, rtol: float = 0.0) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= atol + rtol * hi:
            break
    return 0.5 * (lo + hi)


def _reference_arbitrage_state(params, mix, p, point_at=point_at):
    """arbitrage_state as it was before the regula falsi solve, verbatim.

    ``point_at`` is a parameter only so that a test can record where the
    returned state was evaluated.
    """
    if not isinstance(mix.schedule, Uniform) and not _certified_convex(params, mix):
        raise UnsupportedCurveError(
            "the schedule fails the convexity certificate; arbitrage states are undefined"
        )
    r = p.rate

    def rate_at(s: float) -> float:
        return spot_rate(params, mix, point_at(params, mix, s))

    lo, hi = S_MIN, S_MAX
    r_max, r_min = rate_at(lo), rate_at(hi)
    if r_max == r_min:
        # constant-rate curve: at the matching price ratio every point
        # attains the infimum; report the anchor state
        if r > r_max:
            return point_at(params, mix, lo)
        if r < r_min:
            return point_at(params, mix, hi)
        return MarketState(params.x0, params.y0)
    if r >= r_max:
        return point_at(params, mix, lo)
    if r <= r_min:
        return point_at(params, mix, hi)
    return point_at(params, mix, _reference_bisect(lambda s: rate_at(s) > r, lo, hi, atol=1e-15))


class _LastS:
    """A point_at that remembers the last s it was called with."""

    def __init__(self):
        self.s = None

    def __call__(self, params, mix, s):
        self.s = s
        return point_at(params, mix, s)


def _solved_s(params, mix, p):
    """(s of arbitrage_state, s of the reference) where each evaluated its answer."""
    new, ref = _LastS(), _LastS()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "point_at", new)
        arbitrage_state(params, mix, p)
    _reference_arbitrage_state(params, mix, p, point_at=ref)
    return new.s, ref.s


scale = st.floats(min_value=1e-2, max_value=1e2)
weight = st.floats(min_value=0.0, max_value=1.0)
curves = st.builds(CurveParams, a=scale, b=scale, x0=scale, y0=scale)
mixes = st.one_of(
    st.builds(MixSpec, st.sampled_from(Family), st.builds(Uniform, weight)),
    st.builds(MixSpec.scheduled, st.builds(PowerLaw, st.floats(min_value=0.1, max_value=8.0))),
    st.builds(MixSpec.scheduled, st.builds(Parabolic, bias=weight, center=weight)),
)


def _assume_accepted(params, mix):
    """Keep only curves arbitrage_state solves: uniform or certified convex."""
    if not mix.is_uniform:
        try:
            assume(_certified_convex(params, mix))
        except InvalidParameterError:  # a parabola leaving [0, 1]
            assume(False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, q=st.floats(min_value=-0.1, max_value=1.1), p2=scale)
def test_arbitrage_solve_matches_bisection(params, mix, q, p2):
    """The solved s is within 2e-15 of the old bisection's.

    q places log(p1/p2) between the logs of the end rates (outside them for
    q < 0 or q > 1, where both return the clamped end state).
    """
    _assume_accepted(params, mix)
    r_max = spot_rate(params, mix, point_at(params, mix, S_MIN))
    r_min = spot_rate(params, mix, point_at(params, mix, S_MAX))
    r = math.exp(math.log(r_min) + q * (math.log(r_max) - math.log(r_min)))
    s_new, s_ref = _solved_s(params, mix, PriceVector(r * p2, p2))
    assert abs(s_new - s_ref) <= 2e-15, (s_new, s_ref)


def test_arbitrage_solve_bounded_on_nearly_constant_sum_curve(monkeypatch):
    """A rate flat to 1e-14 across the middle, steep at the ends.

    Regula falsi creeps in from one end for about 47 steps and then meets a
    stretch where the rate equals r to rounding; without the bracket guard
    the solve used up its 100 evaluations.  The guard ends it within the
    bisection's 50 halvings plus 20.
    """
    params, mix = CurveParams(1.0, 1.0, 1.0, 0.5), MixSpec.homotopy(1e-14)
    p = PriceVector(1.000000000000007, 1.0)
    calls = []
    monkeypatch.setattr(analysis, "spot_rate", lambda *args: calls.append(args) or spot_rate(*args))
    s_new, s_ref = _solved_s(params, mix, p)
    assert abs(s_new - s_ref) <= 2e-15
    assert len(calls) <= 2 + 70 + 2  # ends, narrowing, replayed halvings


@pytest.mark.parametrize("params, schedule", [
    (CurveParams(1.0, 1.0, 1.0, 1.0), Parabolic(bias=0.05, center=0.15)),
    (CurveParams(1.0, 1.0, 1.0, 1.0), Parabolic(bias=1.0, center=0.0)),
    (CurveParams(1.0, 1.0, 1.0, 1.0), StableswapDynamic(10.0, 2.0)),
    (CurveParams(1.35, 1.0, 1545.0, 665.0), PowerLaw(3.495)),
])
def test_arbitrage_errors_match_bisection(params, schedule):
    mix = MixSpec.scheduled(schedule)
    p = PriceVector(2.0, 1.0)
    with pytest.raises(AmmixError) as ref:
        _reference_arbitrage_state(params, mix, p)
    with pytest.raises(type(ref.value), match=re.escape(str(ref.value))):
        arbitrage_state(params, mix, p)


def test_arbitrage_solve_work_bound_on_pvf_table(monkeypatch):
    """pvf-table --r-points 101: at most 12 spot rates per arbitrage state on average.

    The bisection took about 42; a rate beyond the curve's range takes the
    two end rates only.
    """
    per_call = []

    def counting_rate(*args):
        per_call[-1] += 1
        return spot_rate(*args)

    def counting_arbitrage(*args):
        per_call.append(0)
        return arbitrage_state(*args)

    monkeypatch.setattr(analysis, "spot_rate", counting_rate)
    monkeypatch.setattr(analysis, "arbitrage_state", counting_arbitrage)
    with redirect_stdout(io.StringIO()):
        assert run_command(["pvf-table", "--r-points", "101"]) == 0
    assert len(per_call) == 505
    assert sum(per_call) / len(per_call) <= 12.0
    assert max(per_call) <= 20


def _patched_rate(monkeypatch, inner_rate):
    """spot_rate for the two end rates of one solve, inner_rate(state) after them."""
    calls = []

    def rate(params, mix, state):
        calls.append(state)
        return spot_rate(params, mix, state) if len(calls) <= 2 else inner_rate(state)

    monkeypatch.setattr(analysis, "spot_rate", rate)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_arbitrage_bad_rate_mid_solve_raises(monkeypatch, unit_params, bad):
    _patched_rate(monkeypatch, lambda state: bad)
    with pytest.raises(InvalidCurveError, match="not positive and finite"):
        arbitrage_state(unit_params, MixSpec.homotopy(0.5), PriceVector(2.0, 1.0))


def _step_rate(state):
    # a rate that jumps across r = 2 and then equals it exactly on the rest
    # of the curve: interpolation learns nothing, and the solve bisects
    return 4.0 if state.x < 0.3 else 2.0


def test_arbitrage_exhausted_cap_raises(monkeypatch, unit_params):
    _patched_rate(monkeypatch, _step_rate)
    mix, p = MixSpec.homotopy(0.5), PriceVector(2.0, 1.0)
    assert isinstance(arbitrage_state(unit_params, mix, p), MarketState)
    _patched_rate(monkeypatch, _step_rate)
    monkeypatch.setattr(analysis, "_MAX_RATE_EVALS", 20)
    with pytest.raises(ConvergenceError, match="after 20 evaluations"):
        arbitrage_state(unit_params, mix, p)


# --- portfolio_value / reduced_value ------------------------------------------

def test_value_cpmm_example(unit_params):
    assert portfolio_value(unit_params, MixSpec.arithmetic(1.0), PriceVector(4, 1)) == pytest.approx(4.0, rel=1e-9)


def test_value_csmm_example(unit_params):
    assert portfolio_value(unit_params, MixSpec.arithmetic(0.0), PriceVector(4, 1)) == pytest.approx(2.0, rel=1e-9)


def test_value_homogeneous(unit_params, pool_params):
    for params in (unit_params, pool_params):
        for mix in (MixSpec.arithmetic(1.0), MixSpec.homotopy(0.4)):
            p = PriceVector(1.7 * params.a / params.b, 1.0)
            base = portfolio_value(params, mix, p)
            for lam in (0.5, 3.0):
                scaled = portfolio_value(params, mix, PriceVector(lam * p.p1, lam * p.p2))
                assert scaled == pytest.approx(lam * base, rel=1e-10)


def test_reduced_value_examples(unit_params):
    cpmm = MixSpec.arithmetic(1.0)
    assert reduced_value(unit_params, cpmm, 4.0) == pytest.approx(4.0, rel=1e-9)
    assert reduced_value(unit_params, cpmm, 1.0) == pytest.approx(2.0, rel=1e-9)
    csmm = MixSpec.arithmetic(0.0)
    assert reduced_value(unit_params, csmm, 1.0) == pytest.approx(2.0, rel=1e-9)


def test_value_decreases_with_stability(unit_params):
    # higher stability (lower t) leaves less value at every off-anchor rate
    for r in (0.5, 2.0):
        values = [reduced_value(unit_params, MixSpec.homotopy(1.0 - s), r)
                  for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-12


# --- impermanent loss properties ----------------------------------------------

def test_il_never_positive(unit_params, pool_params):
    rng = random.Random(29)
    for params in (unit_params, pool_params):
        x_i = params.initial_state
        base_rate = params.a / params.b
        for _ in range(40):
            family = rng.choice(FAMILIES)
            t = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
            mix = MixSpec(family, Uniform(t))
            p_f = PriceVector(base_rate * rng.uniform(0.2, 5.0), rng.uniform(0.5, 2.0))
            x_f = arbitrage_state(params, mix, p_f)
            assert impermanent_loss(p_f, x_i, x_f).il <= 1e-9


def test_cpmm_il_closed_form(unit_params):
    cpmm = MixSpec.arithmetic(1.0)
    x_i = unit_params.initial_state
    for r in (0.25, 0.5, 2.0, 4.0):
        p_f = PriceVector(r, 1.0)
        x_f = arbitrage_state(unit_params, cpmm, p_f)
        il = impermanent_loss(p_f, x_i, x_f).il
        assert il == pytest.approx(2 * math.sqrt(r) / (1 + r) - 1, abs=1e-8)


# --- ERLI ----------------------------------------------------------------------

def test_erli_cpmm_level_independent(unit_params):
    assert erli_discrepancy(unit_params, MixSpec.arithmetic(1.0)) <= 1e-9


def test_erli_homotopy_witness(unit_params):
    assert erli_discrepancy(unit_params, MixSpec.homotopy(0.5)) > 1e-6


def test_erli_all_mixings_fail_between_endpoints(unit_params):
    for family in FAMILIES:
        assert erli_discrepancy(unit_params, MixSpec(family, Uniform(0.5))) > 1e-6


def test_erli_single_scale_trivial(unit_params):
    value = erli_discrepancy(unit_params, MixSpec.homotopy(0.5), price_level_scales=[1.0])
    assert value == 0.0
