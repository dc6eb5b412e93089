import random
import struct
import sys
from bisect import bisect_left, bisect_right
from math import exp, inf, log, nan
from statistics import correlation

import pytest

from ammix import CurveParams, Family, MarketState, MixSpec, Parabolic, PowerLaw, Uniform
from ammix.core import market
from ammix.errors import InvalidParameterError


@pytest.fixture
def unit_params():
    """Symmetric curve through (1, 1) with rate 1."""
    return CurveParams(1.0, 1.0, 1.0, 1.0)


@pytest.fixture
def pool_params():
    """The simulation pool: rate 0.5 anchored at (3000, 1000)."""
    return CurveParams(1.0, 2.0, 3000.0, 1000.0)


@pytest.fixture
def unit_state():
    return MarketState(1.0, 1.0)


def _ranks(values):
    """The ranks 1..n of values, tied values sharing their average rank."""
    ordered = sorted(values)
    return [0.5 * (bisect_left(ordered, v) + bisect_right(ordered, v) + 1) for v in values]


def spearman(xs, ys):
    """Spearman's rank correlation: Pearson's correlation of the ranks,
    tied values taking their average rank."""
    return correlation(_ranks(xs), _ranks(ys))


# --- seeded draws for the randomized tests -----------------------------------------
#
# A randomized test takes the ``draws`` fixture and loops over
# ``draws(count, strategy)``: ``count`` values of ``strategy(draw)``, drawn
# from ``random.Random(<the test's name>)``.  So a test's cases depend on its
# name alone, never on the code under test or on the order tests run in.  A
# strategy raises ``Reject`` for a case the test does not take, and that
# case is redrawn, so ``count`` counts accepted cases only.

# the edges of the whole float line: the zeros, the least and the largest
# subnormal, the largest float, then the infinities and nan
_FLOAT_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
                sys.float_info.max, -sys.float_info.max, inf, -inf, nan)
_FINITE_FLOAT_EDGES = _FLOAT_EDGES[:8]

# every range draws one of its edges with this probability
EDGE_PROBABILITY = 1.0 / 8.0
# how many rejected cases a test may draw per accepted one
REJECTS_PER_CASE = 10


class Reject(Exception):
    """A drawn case the test does not take; ``draws`` redraws it."""


class Draw:
    """One case's draws from the test's shared ``random.Random``."""

    def __init__(self, rng):
        self.rng = rng

    def floats(self, lo, hi):
        """A float in [lo, hi]: one of the ends with EDGE_PROBABILITY, else
        uniform, or, half the time on a positive range, log-uniform."""
        rng = self.rng
        if rng.random() < EDGE_PROBABILITY:
            return rng.choice((lo, hi))
        if lo > 0.0 and rng.random() < 0.5:
            return min(hi, max(lo, exp(rng.uniform(log(lo), log(hi)))))
        return rng.uniform(lo, hi)

    def any_float(self, finite=False):
        """Any float: one of the float line's edges (0, -0, subnormals, the
        largest float and, unless finite, the infinities and nan) with
        EDGE_PROBABILITY, else a uniformly drawn bit pattern (so every
        exponent is as likely) or, half the time, a float of moderate size."""
        rng = self.rng
        if rng.random() < EDGE_PROBABILITY:
            return rng.choice(_FINITE_FLOAT_EDGES if finite else _FLOAT_EDGES)
        if rng.random() < 0.5:
            return rng.uniform(-1e3, 1e3)
        while True:
            value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if not finite or abs(value) <= sys.float_info.max:
                return value

    def integers(self, lo, hi):
        """An integer in [lo, hi]: one of the ends with EDGE_PROBABILITY,
        else uniform."""
        if self.rng.random() < EDGE_PROBABILITY:
            return self.rng.choice((lo, hi))
        return self.rng.randint(lo, hi)

    def choice(self, options):
        return self.rng.choice(list(options))

    def curve(self):
        """A curve with a, b, x0 and y0 each in [1e-2, 1e2]."""
        return CurveParams(*(self.floats(1e-2, 1e2) for _ in range(4)))

    def mix(self):
        """A uniform mix of any family, a power law with exponent in
        [0.1, 8] or a parabola; weights, biases and centers in [0, 1]."""
        kind = self.rng.randrange(3)
        if kind == 0:
            return MixSpec(self.choice(Family), Uniform(self.floats(0.0, 1.0)))
        if kind == 1:
            return MixSpec.scheduled(PowerLaw(self.floats(0.1, 8.0)))
        return MixSpec.scheduled(Parabolic(self.floats(0.0, 1.0), self.floats(0.0, 1.0)))

    def accepted_curve(self):
        """(curve, mix) that ``arbitrage_state`` accepts: a uniform mix, or
        a schedule whose curve is certified convex.  Rejects the others."""
        params, mix = self.curve(), self.mix()
        if not isinstance(mix.schedule, Uniform):
            try:
                certified = market(params, mix).certified
            except InvalidParameterError:  # a parabola leaving [0, 1]
                certified = False
            if not certified:
                raise Reject
        return params, mix


def _draws(rng, count, strategy):
    cases, rejected = [], 0
    while len(cases) < count:
        try:
            cases.append(strategy(Draw(rng)))
        except Reject:
            rejected += 1
            if rejected > REJECTS_PER_CASE * count:
                raise AssertionError(f"{rejected} cases rejected before {count} were accepted")
    return cases


@pytest.fixture
def draws(request):
    """``draws(count, strategy)``: count accepted cases of strategy(Draw),
    from a ``random.Random`` seeded with the test's name."""
    rng = random.Random(request.node.name)
    return lambda count, strategy: _draws(rng, count, strategy)
