import ast
import gc
import inspect
import math
import random
import re
import weakref
from dataclasses import fields
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

from ammix import (
    CurveParams,
    Family,
    MarketState,
    MixSpec,
    calibrate_weights,
    eval_component,
    eval_mixed,
    grad_mixed,
    spot_rate,
)
from ammix import Parabolic, PowerLaw, StableswapDynamic, Uniform, point_at, state_for_x, state_for_y
from ammix import PriceVector, SimConfig, StableswapParams
import ammix
from ammix.core import market
from ammix.errors import (
    DegenerateGradientError,
    InvalidParameterError,
    NonDifferentiablePointError,
    UnsupportedScheduleError,
)

ALL_FAMILIES = [Family.ARITHMETIC, Family.GEOMETRIC, Family.HOMOTOPY]


# --- calibrate_weights ------------------------------------------------------

def test_calibrate_symmetric():
    assert calibrate_weights(1, 1, 1, 1) == (0.5, 0.5)


def test_calibrate_pool():
    alpha, beta = calibrate_weights(1, 2, 3000, 1000)
    assert alpha == pytest.approx(0.6, abs=1e-15)
    assert beta == pytest.approx(0.4, abs=1e-15)
    # cross-check the parallelism condition (a, b) || (alpha/x0, beta/y0)
    assert 1 * (beta / 1000) == pytest.approx(2 * (alpha / 3000), rel=1e-14)


def test_calibrate_scaling_cancels():
    assert calibrate_weights(2, 2, 5, 5) == (0.5, 0.5)


def test_calibrate_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        calibrate_weights(0.0, 1, 1, 1)
    with pytest.raises(InvalidParameterError):
        calibrate_weights(1, -2, 1, 1)
    with pytest.raises(InvalidParameterError):
        calibrate_weights(1, 1, math.inf, 1)


def test_params_cached_constants(pool_params):
    assert pool_params.c == 5000.0
    assert pool_params.s0 == pytest.approx(0.6, abs=1e-15)
    assert pool_params.alpha + pool_params.beta == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("args, s0", [((1e300, 1, 1, 1), "1.0"), ((1e-200, 1, 1e-200, 1), "0.0")])
def test_params_reject_anchor_at_ray_end(args, s0):
    # s0 rounds to an end of (0, 1), where the s-kernels' log(s0) or log(1 - s0) is undefined
    with pytest.raises(InvalidParameterError) as info:
        CurveParams(*args)
    message = str(info.value)
    assert f"s0 = a*x0/(a*x0 + b*y0) = {s0} is not strictly inside (0, 1)" in message
    assert f"a={args[0]!r}, b={args[1]!r}, x0={args[2]!r}, y0={args[3]!r}" in message


def test_params_reject_weighted_total_underflow():
    with pytest.raises(InvalidParameterError, match="underflows to 0"):
        CurveParams(1e-200, 1e-200, 1e-200, 1e-200)


def test_state_requires_positive():
    with pytest.raises(InvalidParameterError):
        MarketState(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        MarketState(1.0, -1.0)


def test_mixspec_non_homotopy_needs_uniform():
    with pytest.raises(InvalidParameterError):
        MixSpec(Family.ARITHMETIC, PowerLaw(2.0))
    MixSpec(Family.HOMOTOPY, PowerLaw(2.0))  # fine


@pytest.mark.parametrize("schedule", [0.5, None, "uniform"])
def test_mixspec_refuses_what_is_not_a_schedule(schedule):
    with pytest.raises(InvalidParameterError, match=re.escape(f"not a schedule: {schedule!r}")):
        MixSpec(Family.HOMOTOPY, schedule)


# every public record with a float field, and valid arguments for it
_RECORDS = {
    CurveParams: dict(a=1.0, b=1.0, x0=1.0, y0=1.0),
    MarketState: dict(x=1.0, y=1.0),
    SimConfig: {},
    Uniform: dict(t=0.5),
    PowerLaw: dict(exponent=1.0),
    Parabolic: dict(bias=0.5, center=0.5),
    StableswapDynamic: dict(amplification=1.0, scale=2.0),
    StableswapParams: dict(n=2, scale=2.0, chi=1.0),
    PriceVector: dict(p1=1.0, p2=1.0),
}
_FLOAT_FIELDS = [(cls, f.name) for cls in _RECORDS for f in fields(cls)
                 if f.init and f.type in ("float", float)]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("cls, name", _FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
def test_float_fields_refuse_booleans(cls, name, value):
    # True and False are ints to Python, and in range for most of these fields
    cls(**_RECORDS[cls])
    with pytest.raises(InvalidParameterError, match=re.escape(f"{name} must be a float, got {value!r}")):
        cls(**{**_RECORDS[cls], name: value})


# --- eval_component ---------------------------------------------------------

def test_component_initial_point(unit_params, unit_state):
    assert eval_component(unit_params, unit_state) == (1.0, 1.0)


def test_component_hand_values(unit_params):
    assert eval_component(unit_params, MarketState(4, 1)) == pytest.approx((2.5, 2.0))
    assert eval_component(unit_params, MarketState(2, 2)) == pytest.approx((2.0, 2.0))


# --- eval_mixed -------------------------------------------------------------

def test_mixed_geometric_value(unit_params):
    # A0 = A1 = 2 at (2, 2); the weighted geometric mean of equal values is
    # that value again, for every t
    value = eval_mixed(unit_params, MixSpec.geometric(0.5), MarketState(2, 2))
    assert value == pytest.approx(2.0, rel=1e-12)


def test_mixed_homotopy_membership(unit_params):
    # point produced by the s = 0.25, t = 0.5 parametrization; membership oracle
    state = MarketState(0.5386751345948129, 1.6160254037844386)
    value = eval_mixed(unit_params, MixSpec.homotopy(0.5), state)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_mixed_endpoint_reduction(unit_params):
    # t = 0 reduces to the A0-based form, t = 1 to the A1-based form
    rng = random.Random(7)
    for _ in range(25):
        state = MarketState(rng.uniform(0.2, 5), rng.uniform(0.2, 5))
        a0, a1 = eval_component(unit_params, state)
        assert eval_mixed(unit_params, MixSpec.arithmetic(0.0), state) == pytest.approx(a0, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.arithmetic(1.0), state) == pytest.approx(a1, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.geometric(0.0), state) == pytest.approx(a0, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.geometric(1.0), state) == pytest.approx(a1, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.homotopy(0.0), state) == pytest.approx(1 / a0, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.homotopy(1.0), state) == pytest.approx(1 / a1, abs=1e-12)


def test_geometric_homogeneity(unit_params, pool_params):
    # exact identity A_geo(k x, k y) = k**((1-t) + (alpha+beta)*t) * A_geo(x, y);
    # with calibrated exponents alpha + beta = 1, so every mixing is 1-homogeneous
    for params in (unit_params, pool_params):
        for t in (0.0, 0.3, 0.5, 0.8, 1.0):
            mix = MixSpec.geometric(t)
            state = MarketState(1.7 * params.x0, 0.4 * params.y0)
            base = eval_mixed(params, mix, state)
            expo = (1 - t) + (params.alpha + params.beta) * t
            for k in (0.5, 2.0, 7.0):
                scaled = eval_mixed(params, mix, MarketState(k * state.x, k * state.y))
                assert scaled == pytest.approx(k**expo * base, rel=1e-10)


# --- grad_mixed -------------------------------------------------------------

def test_grad_csmm_constant(unit_params):
    for family in ALL_FAMILIES:
        mix = MixSpec(family, Uniform(0.0))
        for state in (MarketState(1, 1), MarketState(2, 2), MarketState(0.3, 4)):
            assert grad_mixed(unit_params, mix, state) == pytest.approx((0.5, 0.5), rel=1e-12)


def test_grad_cpmm_initial(unit_params, unit_state):
    for family in ALL_FAMILIES:
        mix = MixSpec(family, Uniform(1.0))
        assert grad_mixed(unit_params, mix, unit_state) == pytest.approx((0.5, 0.5), rel=1e-12)


def test_grad_parallel_to_weights_at_anchor(pool_params):
    state = pool_params.initial_state
    for family in ALL_FAMILIES:
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            gx, gy = grad_mixed(pool_params, MixSpec(family, Uniform(t)), state)
            assert gx / gy == pytest.approx(pool_params.a / pool_params.b, rel=1e-12)


# --- spot_rate --------------------------------------------------------------

def test_spot_initial_rate_is_weight_ratio(unit_params, pool_params):
    for params, expect in ((unit_params, 1.0), (pool_params, 0.5)):
        state = params.initial_state
        for family in ALL_FAMILIES:
            for t in (0.0, 0.5, 1.0):
                rate = spot_rate(params, MixSpec(family, Uniform(t)), state)
                assert rate == pytest.approx(expect, abs=1e-9)


def test_spot_cpmm_is_reserve_ratio(unit_params):
    rate = spot_rate(unit_params, MixSpec.homotopy(1.0), MarketState(0.5, 2.0))
    assert rate == pytest.approx(4.0, rel=1e-12)


# --- the (x, y) kernels against central differences of the invariant -----

def _kernel_cases(n, seed):
    """(params, mix, state) draws over all 3 families and the uniform,
    power-law and parabolic schedules, the anchor state and underflowing
    reserves included."""
    rng = random.Random(seed)
    for _ in range(n):
        params = CurveParams(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
                             10 ** rng.uniform(-2, 4), 10 ** rng.uniform(-2, 4))
        mixes = [MixSpec(family, Uniform(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])))
                 for family in ALL_FAMILIES]
        mixes += [MixSpec.scheduled(PowerLaw(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.25, 8.0)]))),
                  MixSpec.scheduled(Parabolic(bias=0.5, center=rng.uniform(0.3, 0.7)))]
        states = [params.initial_state,  # s == s0 exactly: no t' for a power law with k <= 1
                  MarketState(params.x0 * 10 ** rng.uniform(-3, 3), params.y0 * 10 ** rng.uniform(-3, 3)),
                  point_at(params, MixSpec.homotopy(0.5), rng.uniform(0.001, 0.999)),
                  MarketState(1e-320, params.y0)]  # x/x0 underflows: A1 == 0
        for mix in mixes:
            try:
                market(params, mix)
            except InvalidParameterError:  # a parabola leaving [0, 1] at this s0
                continue
            for state in states:
                yield params, mix, state


def _central_partials(params, mix, state, h=1e-6):
    """(F_x, noise_x), (F_y, noise_y): central differences of F with
    relative steps h, each with the rounding noise of its quotient, 16 ulps
    of the larger |F| over the step.  F is eval_mixed, or 1/eval_mixed for
    homotopy, whose gradient is taken on the increasing orientation."""
    def f(x, y):
        value = eval_mixed(params, mix, MarketState(x, y))
        return 1.0 / value if mix.family is Family.HOMOTOPY else value

    x, y = state.x, state.y
    out = []
    for i, v in enumerate((x, y)):
        up, down = v * (1.0 + h), v * (1.0 - h)
        f_up, f_down = (f(up, y), f(down, y)) if i == 0 else (f(x, up), f(x, down))
        step = up - down
        out.append(((f_up - f_down) / step, 16.0 * 2.0**-52 * max(abs(f_up), abs(f_down)) / step))
    return out


def test_xy_kernels_match_central_differences_of_the_invariant():
    """On the ``_kernel_cases`` draws, grad_mixed is the gradient of
    eval_mixed (of 1/eval_mixed for homotopy) and spot_rate the ratio of
    its partials, within a relative 1e-6 plus the differences' own rounding
    noise; where they refuse, they raise the typed errors of the k <= 1
    cusp (at the anchor only, and reached at an exponent below 1 and at 1
    itself), of gy == 0 and of A1 == 0 under the homotopy's negative power.
    eval_mixed is 1 on the curve ``point_at`` traces through the state's
    ray."""
    raised, cusp_exponents = set(), set()
    for params, mix, state in _kernel_cases(60, 1212):
        cusp = (state == params.initial_state and isinstance(mix.schedule, PowerLaw)
                and mix.schedule.exponent <= 1.0)
        try:
            gx, gy = grad_mixed(params, mix, state)
        except NonDifferentiablePointError:
            # the cusp at s0 of a power law with k <= 1 quotes the anchor rate
            assert cusp
            assert spot_rate(params, mix, state) == params.a / params.b
            raised.add(NonDifferentiablePointError)
            cusp_exponents.add(mix.schedule.exponent)
            continue
        except InvalidParameterError:
            # A1 == 0 under the homotopy's negative power
            assert state.x == 1e-320 and mix.family is Family.HOMOTOPY
            with pytest.raises(InvalidParameterError):
                spot_rate(params, mix, state)
            raised.add(InvalidParameterError)
            continue
        assert not cusp, (params, mix)
        rate = None
        if gy == 0.0:
            with pytest.raises(DegenerateGradientError, match="vanishing partial derivative in y"):
                spot_rate(params, mix, state)
            raised.add(DegenerateGradientError)
        elif not 0.0 < gx / gy < math.inf:
            with pytest.raises(InvalidParameterError, match="is not positive and finite"):
                spot_rate(params, mix, state)
            raised.add(InvalidParameterError)
        else:
            rate = spot_rate(params, mix, state)
        if state.x == 1e-320:  # no difference quotient resolves a subnormal reserve
            continue
        (fx, noise_x), (fy, noise_y) = _central_partials(params, mix, state)
        assert gx == pytest.approx(fx, rel=1e-6, abs=noise_x), (params, mix, state)
        assert gy == pytest.approx(fy, rel=1e-6, abs=noise_y), (params, mix, state)
        if rate is not None:
            rel = 2e-6 + noise_x / abs(fx) + noise_y / abs(fy)
            assert rate == pytest.approx(fx / fy, rel=rel), (params, mix, state)
        ax = params.a * state.x
        on_curve = point_at(params, mix, ax / (ax + params.b * state.y))
        assert eval_mixed(params, mix, on_curve) == pytest.approx(1.0, abs=1e-9), (params, mix, state)
    assert raised == {NonDifferentiablePointError, DegenerateGradientError, InvalidParameterError}
    assert min(cusp_exponents) < 1.0 and 1.0 in cusp_exponents


def test_spot_rate_refuses_vanishing_gy():
    params = CurveParams(1.0, 1.0, 1e10, 1.0)
    with pytest.raises(DegenerateGradientError, match="vanishing partial derivative in y"):
        spot_rate(params, MixSpec.arithmetic(1.0), MarketState(1e-320, 1.0))


# --- market -----------------------------------------------------------------

def test_market_is_resolved_once_per_curve(pool_params):
    mix = MixSpec.scheduled(Parabolic(bias=0.2, center=0.5))
    m = market(pool_params, mix)
    assert market(pool_params, MixSpec.scheduled(Parabolic(0.2, 0.5))) is m
    alpha, beta = pool_params.alpha, pool_params.beta
    assert m.curve == (1.0, 2.0, 3000.0, 1000.0, alpha, beta, 5000.0, alpha)
    assert m.mirrored is m.mirrored
    assert m.mirrored.curve == CurveParams(2.0, 1.0, 1000.0, 3000.0)._curve
    assert m.mirrored.mix == MixSpec.scheduled(Parabolic(bias=0.8, center=0.5))


def test_a_curve_and_its_markets_are_freed_by_refcounting():
    """No Market refers back to a curve object, so dropping the last
    reference to a curve frees it, its Market, the mirror and the
    certificate at once, with the cyclic collector off."""
    gc.disable()
    try:
        params = CurveParams(1.0, 2.0, 3000.0, 1000.0)
        m = market(params, MixSpec.scheduled(Parabolic(bias=0.2, center=0.5)))
        assert m.mirrored.mix == MixSpec.scheduled(Parabolic(bias=0.8, center=0.5))
        assert m.certified
        curve, held = weakref.ref(params), weakref.ref(m)
        del params, m
        assert curve() is None and held() is None
    finally:
        gc.enable()


def test_curve_constants_are_the_kernels_derivation():
    """CurveParams holds the eight constants the kernels take, its alpha,
    beta, c and s0 among them as the same floats, with the weights
    calibrate_weights gives: on random curves and on the mirrored market of
    each."""
    rng = random.Random(1616)
    for _ in range(500):
        params = CurveParams(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3),
                             10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-4, 4))
        mix = MixSpec.scheduled(PowerLaw(rng.uniform(0.5, 8.0)))
        mirrored = market(params, mix).mirrored.curve
        for p in (params, CurveParams(*mirrored[:4])):
            want = (p.a, p.b, p.x0, p.y0, p.alpha, p.beta, p.c, p.s0)
            assert p._curve == want, p
            assert (p.alpha, p.beta) == calibrate_weights(p.a, p.b, p.x0, p.y0), p
            assert p.s0 == p.alpha and p.c == p.a * p.x0 + p.b * p.y0, p
        assert mirrored == want  # the mirrored curve's own constants


DYNAMIC_REFUSALS = {
    "spot_rate": lambda p, mix, state: spot_rate(p, mix, state),
    "grad_mixed": lambda p, mix, state: grad_mixed(p, mix, state),
    "point_at": lambda p, mix, state: point_at(p, mix, 0.5),
    "state_for_x": lambda p, mix, state: state_for_x(p, mix, state.x),
    "state_for_y": lambda p, mix, state: state_for_y(p, mix, state.y),
    "market": lambda p, mix, state: market(p, mix),
}


def test_dynamic_stableswap_blend_is_evaluated(unit_params):
    # t = D^2 / (16 A x y + D^2) = 4 / 20 at (2, 0.5)
    state = MarketState(2.0, 0.5)
    mix = MixSpec.scheduled(StableswapDynamic(1.0, 2.0))
    assert eval_mixed(unit_params, mix, state) == pytest.approx(
        eval_mixed(unit_params, MixSpec.homotopy(0.2), state), rel=1e-15)


@pytest.mark.parametrize("call", DYNAMIC_REFUSALS.values(), ids=DYNAMIC_REFUSALS.keys())
def test_dynamic_stableswap_blend_refused_by_s_kernels(unit_params, unit_state, call):
    mix = MixSpec.scheduled(StableswapDynamic(1.0, 2.0))
    with pytest.raises(UnsupportedScheduleError, match="depends on the state"):
        call(unit_params, mix, unit_state)


# --- the package surface -----------------------------------------------------

_ROOT = Path(__file__).resolve().parent.parent


def _walk(path):
    """Each node of a module, with the names of the definitions that
    enclose it: a definition's references to itself are not uses."""
    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        yield node, own
        for child in ast.iter_child_nodes(node):
            yield from visit(child, own)
    return visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())


def _called_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _members(cls):
    """The public properties and methods a class defines itself; its
    dataclass fields are record fields and its enum members values."""
    fields = getattr(cls, "__dataclass_fields__", {})
    kinds = (property, cached_property, classmethod, staticmethod, FunctionType)
    return {name: v for name, v in vars(cls).items()
            if not name.startswith("_") and name not in fields and isinstance(v, kinds)}


def _options(fn, bound):
    """The defaulted parameters of ``fn`` with their index among the
    positional arguments of a call; ``bound`` drops self or cls."""
    params = list(inspect.signature(fn).parameters.values())[1 if bound else 0:]
    return [(i if p.kind is p.POSITIONAL_OR_KEYWORD else None, p.name)
            for i, p in enumerate(params) if p.default is not p.empty]


def test_every_public_name_has_a_user():
    """Each name in ``ammix.__all__``, each public property and method of an
    exported class, and each defaulted parameter of an exported function or
    method has a user: the library outside its own definition and
    ``__init__.py``, the acceptance or property suites, perfbench, or the
    README.  A member is read only through an attribute (``.rate``), so a
    local function or variable of the same name is not a use.  A parameter
    is used when some call passes it, by keyword or by position.  A name or
    an option only its own unit tests use is not public surface."""
    package = Path(ammix.__file__).parent
    paths = [p for p in package.rglob("*.py") if p != package / "__init__.py"]
    paths += [_ROOT / "tests" / "test_acceptance.py", _ROOT / "tests" / "test_properties.py"]
    paths += sorted((_ROOT / "perfbench").rglob("*.py"))
    nodes = [(node, own) for path in paths for node, own in _walk(path)]
    used = {name for node, own in nodes
            if (name := _called_name(node)) is not None and name not in own}
    read = {node.attr for node, own in nodes
            if isinstance(node, ast.Attribute) and node.attr not in own}
    calls = [node for node, own in nodes
             if isinstance(node, ast.Call) and _called_name(node.func) not in own]
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")

    def in_readme(pattern):
        return re.search(pattern, readme) is not None

    def passed(name, index, option):
        for call in calls:
            if _called_name(call.func) != name:
                continue
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                return True
            if index is not None and len(call.args) > index:
                return True
            if any(kw.arg in (option, None) for kw in call.keywords):  # None: **kwargs
                return True
        return in_readme(rf"\b{re.escape(option)}\s*=")

    unused = [name for name in ammix.__all__
              if name not in used and not in_readme(rf"\b{re.escape(name)}\b")]
    callables = []
    for name in ammix.__all__:
        obj = getattr(ammix, name)
        if isinstance(obj, type):
            for member, v in _members(obj).items():
                if member not in read and not in_readme(rf"\.{re.escape(member)}\b"):
                    unused.append(f"{name}.{member}")
                if isinstance(v, (classmethod, staticmethod, FunctionType)):
                    callables.append((f"{name}.{member}", member, getattr(obj, member),
                                      not isinstance(v, staticmethod)))
        elif isinstance(obj, FunctionType):
            callables.append((name, name, obj, False))
    for label, name, fn, bound in callables:
        for index, option in _options(fn, bound):
            if not passed(name, index, option):
                unused.append(f"{label}({option}=)")
    assert not unused


def test_every_test_helper_has_a_user():
    """Each module-level function and class under ``tests/`` that is not a
    test has a user in ``tests/``, outside its own definition: a name or an
    attribute (``oracle.lam_chain``) that reads it, or, for a fixture, a
    parameter that names it.  An import alone is not a use."""
    paths = sorted((_ROOT / "tests").glob("*.py"))
    defined = [(path.name, stmt.name) for path in paths
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("test_")]
    used = set()
    for path in paths:
        for node, own in _walk(path):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else node.arg
                    if isinstance(node, ast.arg) else None)
            if name is not None and name not in own:
                used.add(name)
    assert [(file, name) for file, name in defined if name not in used] == []
