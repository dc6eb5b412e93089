import io
import math
import random
import re
from contextlib import redirect_stdout

import pytest

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
    arbitrage_states,
    erli_discrepancy,
    impermanent_loss,
    portfolio_value,
    reduced_value,
    reduced_values,
    point_at,
)
from ammix import _kernels as k
from ammix import analysis
from ammix._kernels import rate_s
from ammix.cli import run_command
from ammix.core import market
from ammix.errors import (
    AmmixError,
    ConvergenceError,
    InvalidCurveError,
    InvalidParameterError,
    UnsupportedCurveError,
)
from ammix.parametrize import _reserves_on
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


@pytest.mark.parametrize("p1, p2", [(0.0, 1.0), (1.0, 0.0), (1.0, -1.0), (math.inf, 1.0),
                                    (1.0, math.nan)])
def test_price_vector_refuses_a_price_that_is_not_positive_and_finite(p1, p2):
    with pytest.raises(InvalidParameterError, match="prices must be positive and finite"):
        PriceVector(p1, p2)


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


def test_arbitrage_rejects_nonconvex_schedule(unit_params):
    # a low-bias parabola with a raised center bends the curve concave while
    # keeping t inside [0, 1]
    bad = Parabolic(bias=0.05, center=0.15)
    from ammix import check_convexity
    assert not check_convexity(unit_params, bad).passed
    with pytest.raises(UnsupportedCurveError):
        arbitrage_state(unit_params, MixSpec.scheduled(bad), PriceVector(2, 1))


def test_arbitrage_rejects_a_schedule_the_certificate_could_not_sample(unit_params):
    # every margin of this power law is NaN; the state it used to return at
    # rate 2 was x = 2e-12
    with pytest.raises(UnsupportedCurveError):
        arbitrage_state(unit_params, MixSpec.scheduled(PowerLaw(1e300)), PriceVector(2, 1))


def test_arbitrage_certifies_each_curve_once(monkeypatch, unit_params):
    # the certificate is the Market's, taken on its first arbitrage solve
    import ammix.core as core
    checks = []
    check = core.check_convexity
    monkeypatch.setattr(core, "check_convexity", lambda *args: checks.append(args) or check(*args))
    mix = MixSpec.scheduled(Parabolic(bias=0.2, center=0.5))
    prices = [PriceVector(0.5, 1.0), PriceVector(2.0, 1.0)]
    assert arbitrage_states(unit_params, mix, prices) == arbitrage_states(unit_params, mix, prices)
    assert len(checks) == 1


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


def _ray_rate(params, mix, s, point_at=point_at):
    """The spot rate at ray coordinate s as the arbitrage solve takes it:
    the kernel ``rate_s`` at s, after ``point_at``'s reserve check, and the
    error ``spot_rate`` raises where it is not positive and finite."""
    point_at(params, mix, s)
    m = market(params, mix)
    rate = k.rate_s(*m.codes, s, *m.curve)[1]
    if not 0.0 < rate < math.inf:
        raise InvalidParameterError(f"spot rate {rate!r} at s={s!r} is not positive and finite")
    return rate


def _reference_arbitrage_state(params, mix, p, point_at=point_at):
    """arbitrage_state as it was before the regula falsi solve, verbatim but
    for its rate: ``_ray_rate`` at s, where it was ``spot_rate`` at
    ``point_at(s)``, the kernel ``rate_xy`` at the point's reserves.

    ``point_at`` is a parameter only so that a test can record where the
    returned state was evaluated.
    """
    if not isinstance(mix.schedule, Uniform) and not market(params, mix).certified:
        raise UnsupportedCurveError(
            "the schedule fails the convexity certificate; arbitrage states are undefined"
        )
    r = p.rate

    def rate_at(s: float) -> float:
        return _ray_rate(params, mix, s, point_at)

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


class _SOf:
    """A curve-point function (``point_at``, or ``_reserves_on``, which
    returns the reserves as a tuple; the last argument of each is s) that
    remembers the s of each point it returned, by the point's reserves."""

    def __init__(self, point):
        self.point = point
        self.s = {}

    def __call__(self, *args):
        point = self.point(*args)
        xy = point if isinstance(point, tuple) else (point.x, point.y)
        self.s[xy] = args[-1]
        return point

    def __getitem__(self, state):
        """The s of the point with state's reserves, or None when the
        function made no such point."""
        return self.s.get((state.x, state.y))


def _solved_s(params, mix, p):
    """(s of arbitrage_state, s of the reference) where each evaluated its
    answer; both None for the anchor state of a constant-rate curve, which
    neither makes from an s."""
    new, ref = _SOf(_reserves_on), _SOf(point_at)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_reserves_on", new)
        s_new = new[arbitrage_state(params, mix, p)]
    return s_new, ref[_reference_arbitrage_state(params, mix, p, point_at=ref)]


def _end_rates(params, mix):
    """(r_min, r_max): the spot rates at S_MAX and at S_MIN."""
    return _ray_rate(params, mix, S_MAX), _ray_rate(params, mix, S_MIN)


def _rate_at(q, r_min, r_max):
    """The rate whose log lies a fraction q from log(r_min) to log(r_max)."""
    return math.exp(math.log(r_min) + q * (math.log(r_max) - math.log(r_min)))


def test_arbitrage_solve_matches_bisection(draws):
    """The solved s is within 2e-15 of the old bisection's.

    q places log(p1/p2) between the logs of the end rates (outside them for
    q < 0 or q > 1, where both return the clamped end state).
    """
    cases = draws(200, lambda d: (*d.accepted_curve(), d.floats(-0.1, 1.1), d.floats(1e-2, 1e2)))
    for params, mix, q, p2 in cases:
        r = _rate_at(q, *_end_rates(params, mix))
        s_new, s_ref = _solved_s(params, mix, PriceVector(r * p2, p2))
        if s_new is None or s_ref is None:  # the anchor of a constant rate
            assert s_new is s_ref is None, (params, mix, q, p2, s_new, s_ref)
        else:
            assert abs(s_new - s_ref) <= 2e-15, (params, mix, q, p2, s_new, s_ref)


def _batch_of_qs(d):
    """(params, mix, qs): 1-20 fractions q in [-0.1, 1.1], then up to 10
    repeats of them, ascending, descending or shuffled."""
    params, mix = d.accepted_curve()
    qs = [d.floats(-0.1, 1.1) for _ in range(d.integers(1, 20))]
    qs += [d.choice(qs) for _ in range(d.integers(0, 10))]
    order = d.choice(["ascending", "descending", "shuffled"])
    if order == "shuffled":
        d.rng.shuffle(qs)
    else:
        qs.sort(reverse=order == "descending")
    return params, mix, qs


def test_arbitrage_states_match_one_price_at_a_time(draws):
    """A batch of 1-30 prices returns what one call per price returns.

    The prices come ascending, descending or shuffled, with repeats, and
    some beyond the end rates.  Each row of a batch narrows from points
    that earlier rows evaluated, and the replayed bisection returns the
    same s from any bracket wherever the rate is monotone.  Next to the
    root the computed rate is not monotone at rounding level, so two
    brackets can end the replay a final width (8.9e-16) apart, rarely
    (11 of 46,216 rows of 3,000 random batches, one width each, in every
    family but the homotopy).  The bound is the one
    ``test_arbitrage_solve_matches_bisection`` holds a single solve to.
    """
    for params, mix, qs in draws(200, _batch_of_qs):
        r_min, r_max = _end_rates(params, mix)
        prices = [PriceVector(_rate_at(q, r_min, r_max), 1.0) for q in qs]
        batch, single = _SOf(_reserves_on), _SOf(_reserves_on)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_reserves_on", batch)
            states = arbitrage_states(params, mix, prices)
            mp.setattr(analysis, "_reserves_on", single)
            one_by_one = [arbitrage_state(params, mix, p) for p in prices]
        assert len(states) == len(prices)
        for state, alone in zip(states, one_by_one):
            if batch[state] is None or single[alone] is None:  # the anchor of a constant rate
                assert state == alone, (params, mix, qs)
            else:
                assert abs(batch[state] - single[alone]) <= 2e-15, (params, mix, qs, batch[state],
                                                                    single[alone])


@pytest.mark.parametrize("mix", [
    MixSpec.homotopy(0.3),
    MixSpec.geometric(0.6),
    MixSpec.arithmetic(0.45),
    MixSpec.scheduled(PowerLaw(2.0)),
    MixSpec.scheduled(Parabolic(bias=0.5, center=0.5)),
], ids=["homotopy", "geometric", "arithmetic", "powerlaw", "parabolic"])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_arbitrage_states_on_a_grid_are_the_single_solves(mix, order):
    """On a 101-point rate grid every state is bit for bit the one solved
    alone: the replayed bisection starts from [S_MIN, S_MAX] whatever
    bracket narrowing started from."""
    params = CurveParams(1.3, 1.0, 0.7, 1.6)
    rates = [0.07 + 0.0693 * i for i in range(101)]
    if order == "descending":
        rates.reverse()
    elif order == "shuffled":
        random.Random(3).shuffle(rates)
    prices = [PriceVector(r, 1.0) for r in rates]
    assert arbitrage_states(params, mix, prices) == [arbitrage_state(params, mix, p) for p in prices]


@pytest.mark.parametrize("params, t, qs", [
    # flat end to end: end rates 17 and 3 ULPs apart
    (CurveParams(9.0, 0.25, 1.0, 1.5), 1.175494351e-38, [0.0, 0.5]),
    (CurveParams(10.0, 53.31390075048979, 46.546875, 1.0), 1.1754943508222875e-38, [1.0, 0.5]),
    # flat near S_MIN only (r_max/r_min = 1.0196): prices 2e-11 and 8e-11 below r_max
    (CurveParams(2.8730653453395925, 0.27613294831623514, 0.07288595776803831, 4.868210966582404),
     1.394762874661386e-24, [1.0 - 1e-9, 1.0 - 4e-9]),
    # flat near S_MAX only (r_max/r_min = 1.0269): prices 2.7e-13 and 1.1e-11 above r_min
    (CurveParams(9.0, 0.25, 1.0, 1.5), 1e-25, [1e-11, 4e-10]),
])
def test_arbitrage_states_near_an_end_rate_are_the_bisection(params, t, qs):
    """Rates within 1e-10 of an end rate, on curves flat end to end and
    flat near one end only, with the end rates themselves.

    The computed rate steps between neighbouring floats and back over
    stretches of 1e-13 in s, so brackets narrowed from different starts
    can hold different crossings.  These prices take the same path as
    every other one, warm start, narrowing and replay, and each state is
    the one solved alone and the reference bisection's of [S_MIN, S_MAX]."""
    mix = MixSpec.homotopy(t)
    r_min, r_max = _end_rates(params, mix)
    prices = [PriceVector(math.exp(math.log(r_min) + q * (math.log(r_max) - math.log(r_min))), 1.0)
              for q in qs]
    assert all(r_min <= p.p1 <= r_min * (1.0 + 1e-10) or r_max * (1.0 - 1e-10) <= p.p1 <= r_max
               for p in prices)
    prices += [PriceVector(r_max, 1.0), PriceVector(r_min, 1.0)]  # the end rates, exactly
    batch = arbitrage_states(params, mix, prices)
    assert batch == [arbitrage_state(params, mix, p) for p in prices]
    assert batch == [_reference_arbitrage_state(params, mix, p) for p in prices]


def test_arbitrage_solve_bounded_on_nearly_constant_sum_curve(monkeypatch):
    """A rate flat to 1e-14 across the middle, steep at the ends.

    Regula falsi creeps in from one end for about 47 steps and then meets a
    stretch where the rate equals r to rounding; without the bracket guard
    the solve used up its 100 evaluations.  The guard ends it within the
    bisection's 50 halvings plus 20.
    """
    params, mix = CurveParams(1.0, 1.0, 1.0, 0.5), MixSpec.homotopy(1e-14)
    p = PriceVector(1.000000000000007, 1.0)
    calls = []  # one per rate evaluation of arbitrage_state alone, not the reference's
    with monkeypatch.context() as mp:
        mp.setattr(k, "rate_s", lambda *args: calls.append(args) or rate_s(*args))
        arbitrage_state(params, mix, p)
    s_new, s_ref = _solved_s(params, mix, p)
    assert abs(s_new - s_ref) <= 2e-15
    assert len(calls) <= 2 + 70 + 2  # ends, narrowing, replayed halvings


@pytest.mark.parametrize("params, schedule", [
    (CurveParams(1.0, 1.0, 1.0, 1.0), Parabolic(bias=0.05, center=0.15)),
    (CurveParams(1.0, 1.0, 1.0, 1.0), Parabolic(bias=1.0, center=0.0)),
    (CurveParams(1.0, 1.0, 1.0, 1.0), StableswapDynamic(10.0, 2.0)),
    (CurveParams(1.35, 1.0, 1545.0, 665.0), PowerLaw(3.495)),
    # the reserves at S_MIN overflow: the reserve check's error
    (CurveParams(3.0, 1.0, 1e300, 1e300), Uniform(1.0)),
    # one reserve at an end underflows to 0 or overflows, the other is finite
    (CurveParams(1e308, 1.0, 1e-320, 1e-12), Uniform(1.0)),
    (CurveParams(1.0, 1e308, 1e-5, 1e-323), Uniform(1.0)),
    (CurveParams(1e-308, 1.0, 1e308, 1.0), Uniform(1.0)),
    (CurveParams(1.0, 1e-308, 1.0, 1e308), Uniform(1.0)),
    # x overflows at S_MAX, where the rate underflows to 0: the reserve
    # check's error, not the rate's
    (CurveParams(1e-308, 1e-308, 1e-12, 1e300), Uniform(1.0)),
    # y overflows at S_MIN, and x only at S_MAX
    (CurveParams(1e-308, 1e-308, 1e308, 1e308), Uniform(1.0)),
])
def test_arbitrage_errors_match_bisection(params, schedule):
    mix = MixSpec.scheduled(schedule)
    p = PriceVector(2.0, 1.0)
    with pytest.raises(AmmixError) as ref:
        _reference_arbitrage_state(params, mix, p)
    with pytest.raises(type(ref.value), match=re.escape(str(ref.value))):
        arbitrage_state(params, mix, p)


def test_arbitrage_solve_work_bound_on_pvf_table(monkeypatch):
    """pvf-table --r-points 101: at most 4.5 spot rates per row on average.

    The bisection took about 42 per row, solving each row alone about 7.9,
    and each row from [S_MIN, S_MAX] with the end rates shared about 5.9;
    narrowing from the neighbours' brackets took 4.7, a first probe
    extrapolated from the two rows solved before 4.26, and keeping only
    each solve's final bracket ends as warm points takes 4.27.  Each
    stability's curve evaluates its two end rates once for all 101 rows, no
    solve evaluates more than 20 rates, and a rate beyond the curve's range
    takes none beyond the ends.

    A row's rates are those evaluated after the reserves before it were
    resolved: each solve ends by resolving its row's reserves, and the end
    reserves are resolved right after the end rates.  Every rate is
    ``rate_s``'s, at s; no rate is taken at reserves (x, y).
    """
    rated = []  # (codes, s) of every spot rate
    per_solve = []  # rates of each solved row, its probe included
    since = [0]  # len(rated) when the last reserves were resolved
    reserves_on = analysis._reserves_on

    def counting_rate(*args):
        rated.append((args[:5], args[5]))
        return rate_s(*args)

    def counting_reserves(m, s):
        if S_MIN < s < S_MAX:
            per_solve.append(len(rated) - since[0])
        since[0] = len(rated)
        return reserves_on(m, s)

    def refused(*args):
        raise AssertionError("the arbitrage solve took a rate at reserves (x, y)")

    monkeypatch.setattr(k, "rate_s", counting_rate)
    monkeypatch.setattr(k, "rate_xy", refused)
    monkeypatch.setattr(k, "grad_xy", refused)
    monkeypatch.setattr(analysis, "_reserves_on", counting_reserves)
    with redirect_stdout(io.StringIO()):
        assert run_command(["pvf-table", "--r-points", "101"]) == 0
    assert len(rated) / 505 <= 4.5
    assert per_solve and max(per_solve) <= 20
    params = CurveParams(1.0, 1.0, 1.0, 1.0)
    markets = [market(params, MixSpec.homotopy(1.0 - stability))
               for stability in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert {mix for mix, _ in rated} == {m.codes for m in markets}
    for m in markets:
        for end in (S_MIN, S_MAX):
            assert sum(1 for codes, s in rated if codes == m.codes and s == end) == 1


def _patched_rate(monkeypatch, inner_rate):
    """The kernel rate_s for the two end rates of one solve, its lam and
    inner_rate(state) at the curve point after them; returns the list of
    the s of each call."""
    calls = []

    def rate(family, kind, q0, q1, q2, s, *curve):
        calls.append(s)
        lam, value = rate_s(family, kind, q0, q1, q2, s, *curve)
        if len(calls) <= 2:
            return lam, value
        return lam, inner_rate(MarketState(lam * s / curve[0], lam * (1.0 - s) / curve[1]))

    monkeypatch.setattr(k, "rate_s", rate)
    return calls


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
    calls = _patched_rate(monkeypatch, _step_rate)
    monkeypatch.setattr(analysis, "_MAX_RATE_EVALS", 20)
    with pytest.raises(ConvergenceError, match="after 20 evaluations"):
        arbitrage_state(unit_params, mix, p)
    assert len(calls) == 2 + 20  # the end rates, then the 20 the cap allows


# --- portfolio_value / reduced_value ------------------------------------------

def test_value_csmm_example(unit_params):
    assert portfolio_value(unit_params, MixSpec.arithmetic(0.0), PriceVector(4, 1)) == pytest.approx(2.0, rel=1e-9)


def test_value_past_the_float_range_raises():
    # x = 1e296 at p1 = 1e300: P.X overflows, where it used to return inf
    params = CurveParams(1, 1, 1, 1e308)
    with pytest.raises(InvalidParameterError, match=r"^portfolio value P\.X = inf is not finite"):
        portfolio_value(params, MixSpec.arithmetic(0.0), PriceVector(1e300, 1.0))
    with pytest.raises(InvalidParameterError):
        impermanent_loss(PriceVector(1e300, 1.0), params.initial_state, MarketState(1e296, 1e308))
    # a subnormal held value overflows the ratio, and one that underflows to
    # 0 leaves nothing to divide by: both are refused
    with pytest.raises(InvalidParameterError, match=r"^impermanent loss inf is not finite"):
        impermanent_loss(PriceVector(1, 1), MarketState(1e-322, 1e-322), MarketState(1, 1))
    with pytest.raises(InvalidParameterError, match=r"^impermanent loss inf is not finite"):
        impermanent_loss(PriceVector(1e-300, 1e-300), MarketState(1e-300, 1e-300), MarketState(1, 1))


def test_reduced_value_examples(unit_params):
    cpmm = MixSpec.arithmetic(1.0)
    assert reduced_value(unit_params, cpmm, 4.0) == pytest.approx(4.0, rel=1e-9)
    assert reduced_value(unit_params, cpmm, 1.0) == pytest.approx(2.0, rel=1e-9)
    csmm = MixSpec.arithmetic(0.0)
    assert reduced_value(unit_params, csmm, 1.0) == pytest.approx(2.0, rel=1e-9)


def test_reduced_values_are_value_of_the_batch_states(pool_params):
    """One batch of rates gives PriceVector(r, 1.0).value_of the state
    arbitrage_states solves at each rate, bit for bit, on uniform and
    scheduled curves; at one rate it is reduced_value."""
    rates = [0.02, 0.3, 0.5, 0.51, 2.0, 40.0]
    for mix in (MixSpec.arithmetic(0.3), MixSpec.homotopy(0.6),
                MixSpec.scheduled(Parabolic(bias=0.45, center=0.5))):
        prices = [PriceVector(r, 1.0) for r in rates]
        states = arbitrage_states(pool_params, mix, prices)
        assert reduced_values(pool_params, mix, rates) == [p.value_of(x) for p, x in zip(prices, states)]
        assert reduced_values(pool_params, mix, [0.51]) == [reduced_value(pool_params, mix, 0.51)]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_reduced_values_refuse_a_rate_before_solving(unit_params, monkeypatch, bad):
    monkeypatch.setattr(analysis, "_arbitrage_reserves", None)  # never reached
    with pytest.raises(InvalidParameterError, match="^rate must be positive and finite"):
        reduced_values(unit_params, MixSpec.homotopy(0.5), [1.0, bad])


def test_reduced_values_past_the_float_range_raise():
    # the error PriceVector.value_of raises, at the rate's prices (r, 1.0)
    params = CurveParams(1, 1, 1, 1e308)
    with pytest.raises(InvalidParameterError) as info:
        reduced_values(params, MixSpec.arithmetic(0.0), [1.0, 1e300])
    assert str(info.value) == ("portfolio value P.X = inf is not finite at prices (1e+300, 1.0) "
                               "and reserves (1e+296, 9.99999999999e+307)")


# --- ERLI ----------------------------------------------------------------------

def test_erli_all_mixings_fail_between_endpoints(unit_params):
    for family in FAMILIES:
        assert erli_discrepancy(unit_params, MixSpec(family, Uniform(0.5))) > 1e-6


def test_erli_is_the_spread_over_the_fixed_scenarios(pool_params):
    """The largest spread of IL across the price scales 1, 3 and 10 of
    (a/b, 1), at the rate ratios 0.5 and 2, each price solved alone.  On
    the second curve the spread at ratio 0.5 is the larger one, and scale
    3 sets its lowest IL."""
    for params, mix in ((pool_params, MixSpec.homotopy(0.5)),
                        (CurveParams(1.0, 1.0, 3.0, 1.0), MixSpec.arithmetic(0.5))):
        spreads = []
        for ratio in (0.5, 2.0):
            ils = []
            for scale in (1.0, 3.0, 10.0):
                p_i = PriceVector(params.a / params.b * scale, 1.0)
                p_f = PriceVector(p_i.p1 * ratio, 1.0)
                x_i, x_f = (arbitrage_state(params, mix, p) for p in (p_i, p_f))
                ils.append(impermanent_loss(p_f, x_i, x_f).il)
            spreads.append(max(ils) - min(ils))
        assert erli_discrepancy(params, mix) == pytest.approx(max(spreads), rel=1e-9)