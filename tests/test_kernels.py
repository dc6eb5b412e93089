"""Backend parity: the compiled kernels must match the pure-Python twin, and
the array kernel must match the scalar one."""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ammix
import ammix._kernels as selector
from ammix._kernels import pure
from ammix.errors import NonDifferentiablePointError

fast = None
try:
    fast = importlib.import_module("ammix._kernels._fast")
except ImportError:
    pass

needs_fast = pytest.mark.skipif(fast is None, reason="compiled kernels not built")


def _random_curves(n, seed):
    rng = random.Random(seed)
    curves = []
    for _ in range(n):
        a = rng.uniform(0.3, 3.0)
        b = rng.uniform(0.3, 3.0)
        x0 = rng.uniform(0.5, 4000.0)
        y0 = rng.uniform(0.5, 4000.0)
        c = a * x0 + b * y0
        alpha = a * x0 / c
        curves.append((a, b, x0, y0, alpha, 1.0 - alpha))
    return curves


def test_selected_backend_reported():
    assert selector.BACKEND in ("pure", "compiled")
    assert selector.lam_uniform is not None


@needs_fast
def test_lam_uniform_agrees():
    rng = random.Random(101)
    for curve in _random_curves(30, 1):
        family = rng.randrange(3)
        s = rng.uniform(0.01, 0.99)
        t = rng.uniform(0.0, 1.0)
        got = fast.lam_uniform(family, s, t, *curve)
        want = pure.lam_uniform(family, s, t, *curve)
        assert got == pytest.approx(want, rel=1e-14)


@needs_fast
def test_sched_and_chain_agree():
    rng = random.Random(202)
    for curve in _random_curves(30, 2):
        a, b, x0, y0, alpha, beta = curve
        s0 = a * x0 / (a * x0 + b * y0)
        kind = rng.choice([0, 1, 2])
        if kind == 0:
            q = (rng.uniform(0, 1), 0.0, 0.0)
        elif kind == 1:
            q = (rng.uniform(1.0, 8.0), 0.0, 0.0)
        else:
            q = (0.3, -0.2, 0.4)
        s = rng.uniform(0.02, 0.98)
        assert fast.sched_eval(kind, *q, s, s0) == pure.sched_eval(kind, *q, s, s0)
        got = fast.lam_chain(kind, *q, s, *curve)
        want = pure.lam_chain(kind, *q, s, *curve)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-13, abs=1e-13)


def test_lam_chain_array_matches_scalar_kernel():
    # the array kernel repeats lam_chain's operations, so it differs only by
    # numpy's rounding of exp/log/expm1/power; it marks s0 where lam_chain raises
    rng = random.Random(404)
    for curve in _random_curves(30, 4):
        a, b, x0, y0, alpha, beta = curve
        s0 = a * x0 / (a * x0 + b * y0)
        kind = rng.choice([0, 1, 2])
        if kind == 0:
            q = (rng.uniform(0, 1), 0.0, 0.0)
        elif kind == 1:
            q = (rng.choice([rng.uniform(0.25, 8.0), 0.5, 1.0, 2.0, 3.0]), 0.0, 0.0)
        else:
            q = (0.3, -0.2, 0.4)
        s = np.array([rng.uniform(0.02, 0.98) for _ in range(50)] + [s0])
        with np.errstate(all="ignore"):
            lam, lamp, lampp, singular = selector.lam_chain_array(kind, *q, s, *curve)
        for i, si in enumerate(s.tolist()):
            try:
                want = selector.lam_chain(kind, *q, si, *curve)
            except NonDifferentiablePointError:
                assert singular[i], (kind, q, si)
                continue
            assert not singular[i]
            got = (float(lam[i]), float(lamp[i]), float(lampp[i]))
            if si == s0:  # P - C is exactly 0 at s0 in both
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


@needs_fast
def test_solver_agrees():
    rng = random.Random(303)
    for curve in _random_curves(20, 3):
        a = curve[0]
        family = rng.randrange(3)
        t = rng.uniform(0.1, 1.0)
        s_target = rng.uniform(0.15, 0.85)
        x_target = s_target / a * pure.lam_uniform(family, s_target, t, *curve)
        got = fast.solve_s_for_x(family, 0, t, 0.0, 0.0, x_target, *curve, 1e-12, 1 - 1e-12)
        want = pure.solve_s_for_x(family, 0, t, 0.0, 0.0, x_target, *curve, 1e-12, 1 - 1e-12)
        assert got == pytest.approx(want, abs=1e-13)
        assert got == pytest.approx(s_target, abs=1e-10)


@needs_fast
def test_singularities_agree():
    for k in (0.5, 1.0, 1.5):
        with pytest.raises(Exception):
            fast.sched_eval(1, k, 0.0, 0.0, 0.5, 0.5)
        with pytest.raises(Exception):
            pure.sched_eval(1, k, 0.0, 0.0, 0.5, 0.5)


def test_env_override_selects_pure():
    # The child must import the same ammix as this process, whether it is
    # installed or found through PYTHONPATH from a source tree.
    pkg_root = str(Path(ammix.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p
    )
    env = {**os.environ, "AMMIX_KERNELS": "pure", "PYTHONPATH": pythonpath}
    code = "import ammix._kernels as k; print(k.BACKEND)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "pure"
