import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetbm import (
    ConstructionError,
    DomainError,
    JetPoint,
    QuarticTensor,
    Taylor2,
    TimeAxis,
    TimeMetric,
    taylor2_seed,
)

from jetbm.curvature import bm_s_closed
from jetbm.geometry import CHUNK, metric_batches
from jetbm.harness.checks import VerificationReport
from jetbm.jetcore import check_cone
from jetbm.metric import bm_metric_closed

from conftest import BATCH_SIZES, assert_close, cone_points, max_rel

cone_floats = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


# -- time metric -------------------------------------------------------------


def test_constant_family_example():
    v = TimeMetric.constant(2.0).eval(7.0)
    assert (v.h11, v.h11_inv, v.dh11, v.d2h11) == (2.0, 0.5, 0.0, 0.0)


def test_exponential_family_example():
    v = TimeMetric.exponential(1.0, 1.0).eval(0.0)
    assert (v.h11, v.h11_inv, v.dh11, v.d2h11) == (1.0, 1.0, 1.0, 1.0)


def test_power_family_example():
    v = TimeMetric.power(1.0).eval(0.5)
    np.testing.assert_allclose([v.h11, v.h11_inv, v.dh11, v.d2h11], [1.25, 0.8, 1.0, 2.0], rtol=1e-15)


@pytest.mark.parametrize("c", [0.0, -1.0])
@pytest.mark.parametrize("family", ["constant", "exponential"])
def test_scale_must_be_positive(family, c):
    with pytest.raises(ConstructionError):
        TimeMetric(family=family, c=c)


def test_unknown_family_rejected():
    with pytest.raises(ConstructionError):
        TimeMetric(family="sinusoidal")


def test_h_inverse_exact(families, rng):
    for tm in families:
        for t in rng.uniform(-2, 2, 20):
            v = tm.eval(t)
            assert v.h11 > 0
            assert abs(v.h11 * v.h11_inv - 1.0) <= 2.3e-16


def test_derivatives_match_finite_differences(families, rng):
    h1, h2 = 1e-6, 1e-4
    for tm in families:
        for t in rng.uniform(-1.5, 1.5, 25):
            v = tm.eval(t)
            fd1 = (tm.eval(t + h1).h11 - tm.eval(t - h1).h11) / (2 * h1)
            fd2 = (tm.eval(t + h2).h11 - 2 * v.h11 + tm.eval(t - h2).h11) / h2**2
            assert max_rel(v.dh11, fd1) <= 1e-6 or abs(v.dh11 - fd1) <= 1e-8
            assert max_rel(v.d2h11, fd2) <= 1e-5 or abs(v.d2h11 - fd2) <= 1e-6


def _one_point(tm: TimeMetric, t: float) -> tuple:
    """(t, h_11, h^11, h_11', h_11'', kappa, kappa') at one float t by the plain
    float formulas; exp is numpy's, the function the family is defined with
    (the C library's exp rounds differently on some hosts)."""
    if tm.family == "constant":
        h, dh, d2h = tm.c, 0.0, 0.0
    elif tm.family == "exponential":
        h = tm.c * float(np.exp(tm.lam * t))
        dh = tm.lam * h
        d2h = tm.lam * tm.lam * h
    else:
        u = 1.0 + t * t
        h = u**tm.a
        dh = 2.0 * tm.a * t * u ** (tm.a - 1.0)
        d2h = 2.0 * tm.a * u ** (tm.a - 1.0) + 4.0 * tm.a * (tm.a - 1.0) * t * t * u ** (tm.a - 2.0)
    h_inv = 1.0 / h
    return (t, h, h_inv, dh, d2h, 0.5 * h_inv * dh, 0.5 * d2h / h - 0.5 * (dh / h) ** 2)


def _random_family(family: str, rng) -> TimeMetric:
    if family == "constant":
        return TimeMetric.constant(float(np.exp(rng.uniform(-2, 2))))
    if family == "exponential":
        return TimeMetric.exponential(float(np.exp(rng.uniform(-2, 2))), float(rng.uniform(-2.5, 2.5)))
    return TimeMetric.power(float(rng.uniform(-3, 3)))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("family", ["constant", "exponential", "power"])
def test_eval_over_a_batch_is_the_one_point_formulas(family, size, rng):
    """TimeMetric.eval over t of shape (N,) equals the plain float formulas at
    each t bit for bit, kappa and kappa' included."""
    for _ in range(5):
        tm = _random_family(family, rng)
        ts = rng.uniform(-3, 3, size)
        ax = tm.eval(ts)
        got = np.stack([getattr(ax, f.name) for f in fields(TimeAxis)], axis=1)
        assert got.shape == (size, 7)
        want = [_one_point(tm, t) for t in ts.tolist()]
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=repr(tm))


@pytest.mark.parametrize("family", ["constant", "exponential", "power"])
def test_eval_over_repeated_t_is_the_one_point_formulas(family, rng):
    """Over an unsorted t that repeats its values, -0.0 beside 0.0, every
    entry equals the plain float formulas at its own t bit for bit (under
    the power family, h_11' is -0.0 at t = -0.0 and 0.0 at 0.0)."""
    for _ in range(5):
        tm = _random_family(family, rng)
        distinct = np.append(rng.uniform(-3, 3, 6), [0.0, -0.0])
        ts = np.concatenate([distinct, rng.choice(distinct, 40)])
        rng.shuffle(ts)
        ax = tm.eval(ts)
        got = np.stack([getattr(ax, f.name) for f in fields(TimeAxis)], axis=1)
        want = [_one_point(tm, t) for t in ts.tolist()]
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=repr(tm))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_time_axis_names_the_first_bad_t_in_input_order():
    """The refusal names the first bad t of the batch as given, not the
    largest."""
    with pytest.raises(DomainError, match=r"exponential time metric is not finite at batch index 0, t=2000\.0$"):
        TimeMetric.exponential(1.0, 1.0).eval([2000.0, 1000.0, 2000.0])


@pytest.mark.parametrize("family", ["constant", "exponential", "power"])
def test_eval_at_a_float_gives_floats(family, rng):
    tm = _random_family(family, rng)
    t = float(rng.uniform(-3, 3))
    ax = tm.eval(t)
    got = tuple(getattr(ax, f.name) for f in fields(TimeAxis))
    assert all(type(v) is float for v in got)
    np.testing.assert_array_equal(_bits(got), _bits(_one_point(tm, t)))


# -- jet points --------------------------------------------------------------


def test_jet_point_requires_positive_cone():
    with pytest.raises(DomainError):
        JetPoint.from_y([1.0, -2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        JetPoint.from_y([1.0, 0.0, 3.0, 4.0])
    # two negatives keep the product positive but stay outside the domain
    with pytest.raises(DomainError):
        JetPoint.from_y([-1.0, -2.0, 3.0, 4.0])
    # a NaN is outside the cone, and the point is named as it is
    with pytest.raises(DomainError, match=re.escape("y must lie in the open positive cone, y=[ 1. nan  3.  4.]")):
        JetPoint.from_y([1.0, np.nan, 3.0, 4.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_every_reader_of_the_cone_refuses_a_non_finite_coordinate(bad):
    """+inf passes y > 0 but lies outside the cone: the jet point, the
    Taylor2 seed, the closed forms and the kernel refuse it with
    DomainError, naming the point (at its batch index in a batch), as they
    refuse -inf and NaN, before any arithmetic warns."""
    y = np.array([bad, 1.0, 1.0, 1.0])
    message = re.escape(f"y must lie in the open positive cone, y={y}")
    for call in (JetPoint.from_y, taylor2_seed, bm_metric_closed, bm_s_closed):
        with pytest.raises(DomainError, match=message):
            call(y)
    ys = np.ones((3, 4))
    ys[1] = y
    with pytest.raises(DomainError, match=re.escape(f"open positive cone at batch index 1, y={y}")):
        list(metric_batches(QuarticTensor.berwald_moor(), TimeMetric.constant(1.0), np.zeros(3), ys))
    with pytest.raises(DomainError, match=re.escape(f"open positive cone at batch index 1, y={y}")):
        bm_s_closed(ys)


def test_a_batch_refusal_can_name_its_point_by_another_count():
    """A refusal over a batch keeps its point's batch index, and ``at``
    raises the same error naming that point by the caller's own count (a
    table row of which the batch is a slice); a one-point refusal has no
    index."""
    ys = np.ones((3, 4))
    ys[2, 1] = -2.0
    with pytest.raises(DomainError) as exc:
        check_cone(ys)
    assert exc.value.index == 2
    renamed = exc.value.at(1026, "table row")
    assert type(renamed) is DomainError and renamed.index == 1026
    assert str(renamed) == f"y must lie in the open positive cone at table row 1026, y={ys[2]}"
    with pytest.raises(DomainError) as exc:
        check_cone(ys[2])
    assert exc.value.index is None


def test_jet_point_immutable():
    p = JetPoint.from_y([1, 2, 3, 4], t=0.5)
    with pytest.raises(ValueError):
        p.y[0] = 9.0
    assert p.x.shape == (4,)


# -- quartic tensor ----------------------------------------------------------


def test_berwald_moor_components(bm):
    assert bm[(1, 2, 3, 4)] == pytest.approx(1 / 24)
    assert bm[(4, 2, 1, 3)] == pytest.approx(1 / 24)  # any permutation
    assert bm[(1, 1, 2, 3)] == 0.0
    assert len(bm.components) == 35
    assert bm.is_berwald_moor


def test_custom_tensor_symmetrized_storage():
    G = QuarticTensor.from_components({(3, 1, 2, 1): 0.25})
    assert G[(1, 1, 2, 3)] == 0.25
    assert G[(2, 3, 1, 1)] == 0.25
    assert not G.is_berwald_moor
    d = G.dense
    assert d[0, 0, 1, 2] == d[2, 1, 0, 0] == 0.25


def test_custom_tensor_equal_to_bm_detected():
    G = QuarticTensor.from_components({(1, 2, 3, 4): 1.0 / 24.0})
    assert G.is_berwald_moor


def test_bad_indices_rejected():
    with pytest.raises(ConstructionError):
        QuarticTensor.from_components({(0, 1, 2, 3): 1.0})
    with pytest.raises(ConstructionError):
        QuarticTensor.from_components({(1, 2, 3): 1.0})


def test_conflicting_permutations_rejected():
    with pytest.raises(ConstructionError):
        QuarticTensor.from_components({(1, 1, 2, 3): 0.5, (3, 2, 1, 1): 0.7})
    # a consistent duplicate is allowed
    G = QuarticTensor.from_components({(1, 1, 2, 3): 0.5, (3, 2, 1, 1): 0.5})
    assert G[(1, 1, 2, 3)] == 0.5


# -- Taylor2 seeds and arithmetic -------------------------------------------


def test_seed_basis():
    s = taylor2_seed(np.array([1.0, 2.0, 3.0, 4.0]))
    assert s[0].value == 1.0
    np.testing.assert_array_equal(s[0].grad, [1, 0, 0, 0])
    np.testing.assert_array_equal(s[0].hess, np.zeros((4, 4)))


def test_seed_product_at_ones():
    s = taylor2_seed(np.ones(4))
    prod = s[0] * s[1] * s[2] * s[3]
    assert prod.value == 1.0
    np.testing.assert_allclose(prod.grad, np.ones(4), rtol=1e-15)


def test_seed_product_grad_is_product_over_coordinate():
    s = taylor2_seed(np.array([1.0, 2.0, 3.0, 4.0]))
    prod = s[0] * s[1] * s[2] * s[3]
    assert prod.value == pytest.approx(24.0)
    np.testing.assert_allclose(prod.grad, [24, 12, 8, 6], rtol=1e-15)


def test_seed_rejects_cone_violations():
    with pytest.raises(DomainError, match=re.escape("open positive cone, y=[ 1. -1.  1.  1.]")):
        taylor2_seed(np.array([1.0, -1.0, 1.0, 1.0]))


def test_sqrt_then_square_roundtrip(rng):
    for y in cone_points(rng, 25):
        s = taylor2_seed(y)
        f = s[0] * s[1] * s[2] * s[3] + s[1] * s[2]
        back = f.sqrt()
        back = back * back
        assert_close(back.value, f.value, 1e-12)
        assert_close(back.grad, f.grad, 1e-12)
        assert_close(back.hess, f.hess, 1e-12)


def test_power_consistent_with_multiplication(rng):
    for y in cone_points(rng, 10):
        s = taylor2_seed(y)
        f = s[0] + s[2] * s[3]
        sq = f**2
        assert max_rel(sq.value, (f * f).value) <= 1e-14
        assert max_rel(sq.hess, (f * f).hess) <= 1e-13
        assert max_rel((f**0.5).value, f.sqrt().value) <= 1e-14


def test_non_integer_power_needs_positive_value():
    t = Taylor2(-2.0)
    with pytest.raises(DomainError, match=r"non-integer power of non-positive value, value=-2\.0$"):
        t**0.5
    with pytest.raises(DomainError, match=r"sqrt of non-positive Taylor2 value, value=nan$"):
        Taylor2(np.nan).sqrt()
    assert (t**2).value == 4.0


def test_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        Taylor2(1.0) / Taylor2(0.0)


@settings(max_examples=40, deadline=None)
@given(a=cone_floats, b=cone_floats, c=cone_floats, d=cone_floats)
def test_hessian_exactly_symmetric_under_composition(a, b, c, d):
    s = taylor2_seed(np.array([a, b, c, d]))
    f = (s[0] * s[1] + 2.0) * s[2] / s[3] - (s[0] * s[3]).sqrt() + s[1] / (s[2] + 1.0)
    assert np.array_equal(f.hess, f.hess.T)
    assert not f.hess.flags.writeable


@settings(max_examples=40, deadline=None)
@given(a=cone_floats, b=cone_floats, c=cone_floats, d=cone_floats)
def test_quotient_roundtrip(a, b, c, d):
    s = taylor2_seed(np.array([a, b, c, d]))
    f = s[0] * s[1] + s[2]
    g = s[3] + 0.5
    back = (f / g) * g
    assert_close(back.value, f.value, 1e-13)
    assert_close(back.grad, f.grad, 1e-12)
    assert_close(back.hess, f.hess, 1e-11)


def test_gradients_match_finite_differences(rng):
    """Spec-level soundness: grad/hess of +,-,*,/,sqrt compositions track
    central differences with steps 1e-6 / 1e-4."""

    def f(y):
        return np.sqrt(y[0] * y[1] * y[2] * y[3]) + (y[0] + 2 * y[1]) * y[2] / y[3]

    def f_t2(y):
        s = taylor2_seed(y)
        return (s[0] * s[1] * s[2] * s[3]).sqrt() + (s[0] + 2.0 * s[1]) * s[2] / s[3]

    for y in cone_points(rng, 30):
        out = f_t2(y)
        scale = max(1.0, abs(out.value))
        for a in range(4):
            e = np.zeros(4)
            e[a] = 1e-6 * max(y[a], 1.0)
            fd = (f(y + e) - f(y - e)) / (2 * e[a])
            assert abs(out.grad[a] - fd) / max(abs(fd), scale) <= 1e-5
        for a in range(4):
            for b in range(4):
                ea, eb = np.zeros(4), np.zeros(4)
                ea[a] = 1e-4 * max(y[a], 1.0)
                eb[b] = 1e-4 * max(y[b], 1.0)
                if a == b:
                    fd = (f(y + ea) - 2 * f(y) + f(y - ea)) / ea[a] ** 2
                else:
                    fd = (f(y + ea + eb) - f(y + ea - eb) - f(y - ea + eb) + f(y - ea - eb)) / (
                        4 * ea[a] * eb[b]
                    )
                assert abs(out.hess[a, b] - fd) / max(abs(fd), scale) <= 1e-5


# -- batched Taylor2 ------------------------------------------------------------


def _compositions(s, c):
    """Every Taylor2 rule applied to seeds s, with constant c (a scalar for a
    single point, an (N,) array or a scalar for a batch)."""
    a = s[0] * s[1] + s[2]
    b = s[3] + 0.5
    return {
        "add": a + b,
        "add-const": a + c,
        "radd": c + a,
        "neg": -a,
        "sub": a - b,
        "sub-const": a - c,
        "rsub": c - a,
        "mul": a * b,
        "mul-const": a * c,
        "rmul": c * a,
        "div": a / b,
        "div-const": a / c,
        "rdiv": c / b,
        "reciprocal": b.reciprocal(),
        "sqrt": (a * b).sqrt(),
        "pow-int": b**3,
        "pow-frac": a**-1.5,
        "pow-half": (a / s[2]) ** 0.5,
    }


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_batched_rules_are_bit_identical_per_point(size, rng):
    ys = cone_points(rng, size)
    cs = rng.uniform(0.5, 3.0, size)
    for const in (cs, 1.7):
        batch = _compositions(taylor2_seed(ys), const)
        for n in range(size):
            one = _compositions(taylor2_seed(ys[n]), cs[n] if const is cs else const)
            for name, t in batch.items():
                assert t.value.shape == (size,) and t.grad.shape == (size, 4) and t.hess.shape == (size, 4, 4)
                assert t.value[n] == one[name].value, name
                np.testing.assert_array_equal(t.grad[n], one[name].grad, err_msg=name)
                np.testing.assert_array_equal(t.hess[n], one[name].hess, err_msg=name)


def test_batched_hessian_exactly_symmetric_and_read_only(rng):
    s = taylor2_seed(cone_points(rng, CHUNK + 1))
    f = (s[0] * s[1] + 2.0) * s[2] / s[3] - (s[0] * s[3]).sqrt() + s[1] / (s[2] + 1.0)
    assert np.array_equal(f.hess, f.hess.swapaxes(1, 2))
    for arr in (f.value, f.grad, f.hess):
        assert not arr.flags.writeable


def test_scalar_mixes_with_batch(rng):
    ys = cone_points(rng, 3)
    s = taylor2_seed(ys)
    total = Taylor2(0.0) + s[0] * s[1]
    np.testing.assert_array_equal(total.value, (s[0] * s[1]).value)
    assert total.hess.shape == (3, 4, 4)


def test_batched_reciprocal_names_the_zero_point():
    t = Taylor2(np.array([1.0, 2.0, 0.0, 0.0]))
    with pytest.raises(ZeroDivisionError, match=r"reciprocal of a zero Taylor2 value at batch index 2, value=0\.0$"):
        t.reciprocal()
    with pytest.raises(ZeroDivisionError, match="at batch index 2"):
        Taylor2(1.0) / t
    with pytest.raises(ZeroDivisionError, match="at batch index 2"):
        t**-1


@pytest.mark.parametrize("op", [lambda t: t.sqrt(), lambda t: t**0.5, lambda t: t**-1.5])
def test_batched_domain_error_names_the_non_positive_point(op):
    t = Taylor2(np.array([1.0, 2.0, 3.0, -4.0, 0.0]))
    with pytest.raises(DomainError, match=r"at batch index 3, value=-4\.0$"):
        op(t)


def test_batched_integer_power_of_negative_values():
    t = Taylor2(np.array([-2.0, 3.0]))
    np.testing.assert_array_equal((t**2).value, [4.0, 9.0])


def test_batched_seed_basis_and_cone():
    ys = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    s = taylor2_seed(ys)
    np.testing.assert_array_equal(s[2].value, [3.0, 7.0])
    np.testing.assert_array_equal(s[2].grad, [[0, 0, 1, 0], [0, 0, 1, 0]])
    np.testing.assert_array_equal(s[2].hess, np.zeros((2, 4, 4)))
    with pytest.raises(DomainError, match=re.escape("at batch index 1, y=[1. 1. 0. 1.]")):
        taylor2_seed(np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]]))
    with pytest.raises(DomainError):
        taylor2_seed(np.ones((2, 3)))


def test_batched_construction_checks_shapes():
    with pytest.raises(ConstructionError):
        Taylor2(np.ones(3), np.ones(4))
    with pytest.raises(ConstructionError):
        Taylor2(np.ones((2, 2)))


# -- verification report -----------------------------------------------------


def test_report_pass_rule_is_or_of_tolerances():
    r = VerificationReport.from_errors("x", 10, 1e-3, 1e-12, seed=7, abs_tol=1e-10, rel_tol=1e-9)
    assert r.passed  # rel side passes
    r = VerificationReport.from_errors("x", 10, 1e-12, 0.5, seed=7, abs_tol=1e-10, rel_tol=1e-9)
    assert r.passed  # abs side passes
    r = VerificationReport.from_errors("x", 10, 1e-3, 0.5, seed=7, abs_tol=1e-10, rel_tol=1e-9)
    assert not r.passed
    r = VerificationReport.from_errors("x", 10, 1e-3, 1e-12, seed=7, abs_tol=1e-10, rel_tol=None)
    assert not r.passed  # only the abs side counts


def test_report_skip_serialization():
    r = VerificationReport.skip("y", seed=3)
    d = r.to_dict()
    assert d["skipped"] and d["pass"] and d["max_abs_err"] is None
