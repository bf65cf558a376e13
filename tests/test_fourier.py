import math
import re

import numpy as np
import pytest

from oracles import (
    compose,
    evaluate_f_quadrature,
    evaluate_fhat,
    from_polar,
    invert,
    lambda_integral_oracle,
    matrix_coefficient_u,
    matrix_coefficient_u_quadrature,
    nonzero_items_ndenumerate,
    tau,
    to_polar,
)
from pentapack.fourier import (
    CoefficientTensor,
    ModelParams,
    TensorInvariantError,
    evaluate_f,
    lambda_of,
    random_positive_tensor,
)
from pentapack.motion import MotionPoint


def unit_tensor(N=2, d=3):
    params = ModelParams(N, d)
    t = CoefficientTensor.zeros(params)
    e = t.entries.copy()
    e.setflags(write=True)
    e[N, N, 0] = 1.0
    return CoefficientTensor(params, e)


def random_point(rng, rho_max=2.0):
    return MotionPoint(rng.uniform(0, rho_max), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))


def test_unit_tensor_gaussian():
    t = unit_tensor()
    for rho in (0.0, 0.4, 1.3):
        p = MotionPoint(rho, 0.7, 1.9)
        assert evaluate_f(t, p) == pytest.approx(
            math.exp(-math.pi * rho * rho) / (2 * math.pi), rel=1e-14
        )


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 3)
    with pytest.raises(ValueError):
        ModelParams(2, 4)  # even d


def test_theta_period_two_pi_over_five():
    rng = np.random.default_rng(30)
    t = random_positive_tensor(ModelParams(5, 5), rng)
    for _ in range(20):
        p = random_point(rng)
        q = MotionPoint(p.rho, (p.theta + 2 * math.pi / 5) % (2 * math.pi), p.alpha)
        assert evaluate_f(t, q) == pytest.approx(evaluate_f(t, p), abs=1e-10)


def test_closed_form_matches_inversion_quadrature():
    rng = np.random.default_rng(31)
    t = random_positive_tensor(ModelParams(2, 3), rng)
    for _ in range(10):
        p = random_point(rng)
        assert evaluate_f_quadrature(t, p) == pytest.approx(evaluate_f(t, p), abs=1e-8)


def test_quadrature_linear_in_tensor():
    rng = np.random.default_rng(32)
    params = ModelParams(2, 3)
    t1 = random_positive_tensor(params, rng)
    t2 = random_positive_tensor(params, rng)
    ts = CoefficientTensor(params, t1.entries + t2.entries)
    p = random_point(rng)
    assert evaluate_f_quadrature(ts, p) == pytest.approx(
        evaluate_f_quadrature(t1, p) + evaluate_f_quadrature(t2, p), abs=1e-10
    )


def test_matrix_coefficient_closed_form():
    p = MotionPoint(0.8, 1.1, 2.7)
    assert matrix_coefficient_u(0.5, 0, 0, p) == pytest.approx(
        complex(np.real(matrix_coefficient_u(0.5, 0, 0, p)), 0)
    )
    # at a = 0 only diagonal entries survive
    assert matrix_coefficient_u(0.0, 2, 2, p) == pytest.approx(np.exp(-2j * p.alpha))
    assert matrix_coefficient_u(0.0, 3, 1, p) == 0


def test_matrix_coefficient_vs_quadrature():
    rng = np.random.default_rng(33)
    for _ in range(100):
        a = rng.uniform(0, 2)
        r, s = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        p = random_point(rng)
        assert matrix_coefficient_u(a, r, s, p) == pytest.approx(
            matrix_coefficient_u_quadrature(a, r, s, p), abs=1e-10
        )


def test_fhat_matrix():
    t = unit_tensor(2, 3)
    m = evaluate_fhat(t, 0.0)
    assert m[2, 2] == pytest.approx(1.0)
    assert np.abs(m).sum() == pytest.approx(1.0)
    rng = np.random.default_rng(34)
    tr = random_positive_tensor(ModelParams(3, 5), rng)
    for a in rng.uniform(0, 5, 100):
        m = evaluate_fhat(tr, a)
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() >= -1e-9


def test_tau_examples():
    p = MotionPoint(0.6, 0.3, 0.9)
    assert tau(0, 0, [1], p) == pytest.approx(1 / (2 * math.pi))
    assert tau(10, 0, [0, 1], p) == 0  # k = 1 below |r-s|/2 = 5
    with pytest.raises(ValueError):
        tau(3, 0, [0, 1], p)


def test_tau_reassembles_f():
    rng = np.random.default_rng(35)
    t = random_positive_tensor(ModelParams(5, 5), rng)
    p = random_point(rng)
    total = 0j
    for r, s, k, v in t.nonzero_items():
        total += v * tau(r, s, [0] * k + [1], p)
    total *= math.exp(-math.pi * p.rho**2)
    assert total.imag == pytest.approx(0.0, abs=1e-12 * max(1, t.l1_norm()))
    assert total.real == pytest.approx(evaluate_f(t, p), abs=1e-12 * max(1, t.l1_norm()))


def test_nonzero_items_equal_the_ndenumerate_form():
    """Same entries, order, types and bits; -0.0 is left out, NaN and inf kept."""
    rng = np.random.default_rng(36)
    tensors = [random_positive_tensor(ModelParams(5, 11), rng), CoefficientTensor.zeros(ModelParams(1, 1))]
    e = rng.standard_normal((7, 7, 4)) * (rng.uniform(size=(7, 7, 4)) < 0.3)
    e[0, 0, 0], e[1, 2, 3], e[6, 6, 3], e[3, 3, 0], e[2, 5, 1] = -0.0, math.nan, -math.inf, 5e-324, 0.0
    tensors.append(CoefficientTensor(ModelParams(3, 3), e))
    for t in tensors:
        got, want = list(t.nonzero_items()), list(nonzero_items_ndenumerate(t))
        assert repr(got) == repr(want)
        assert all(type(v) is float and all(type(i) is int for i in item) for *item, v in got)


def test_lambda_of_and_oracle():
    t = unit_tensor(2, 3)
    assert lambda_of(t) == 1.0
    assert lambda_integral_oracle(t) == pytest.approx(1.0, abs=1e-6)
    rng = np.random.default_rng(36)
    tr = random_positive_tensor(ModelParams(2, 3), rng)
    assert lambda_integral_oracle(tr) == pytest.approx(lambda_of(tr), abs=1e-6)


def test_positive_type_gram():
    rng = np.random.default_rng(37)
    t = random_positive_tensor(ModelParams(3, 5), rng)
    motions = [
        from_polar(random_point(rng, rho_max=1.5)) for _ in range(20)
    ]
    G = np.array(
        [
            [evaluate_f(t, to_polar(compose(invert(mj), mi))) for mj in motions]
            for mi in motions
        ]
    )
    assert np.abs(G - G.T).max() < 1e-10
    assert np.linalg.eigvalsh(0.5 * (G + G.T)).min() >= -1e-8


def test_gaussian_decay():
    rng = np.random.default_rng(38)
    t = random_positive_tensor(ModelParams(3, 3), rng)
    scale = max(1.0, t.l1_norm())
    assert abs(evaluate_f(t, MotionPoint(5.0, 0.1, 0.2))) < 1e-20 * scale


def test_invariant_violation_detected():
    params = ModelParams(2, 3)
    e = np.zeros((5, 5, 4))
    e[3, 2, 0] = 1.0  # r=1, s=0: difference not divisible by 10
    t = CoefficientTensor(params, e)
    with pytest.raises(TensorInvariantError):
        evaluate_f(t, MotionPoint(0.5, 0.0, 0.0))


def test_serialization_roundtrip():
    rng = np.random.default_rng(39)
    t = random_positive_tensor(ModelParams(3, 5), rng)
    t2 = CoefficientTensor.loads(t.dumps())
    assert np.array_equal(t.entries, t2.entries)
    assert t2.params == t.params


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        CoefficientTensor.loads("not a tensor\n1 2 3")


@pytest.mark.parametrize(
    "line",
    ["-8 0 2 0.5", "0 6 0 1.0", "0 0 -1 0.25", "0 0 12 0.25", "0 0 0 nan", "0 0 0 inf", "0 0 0", "0 0 0 1 2", "0 0 0 2.0"],
)
def test_loads_refuses_an_entry_outside_the_tensor(line):
    """At N=5, d=11 each line names a slot outside the tensor, a non-finite value, the wrong field count
    or the slot of the line "0 0 0 1.0" before it, which a second value once silently replaced."""
    text = f"{CoefficientTensor.FORMAT_HEADER}\nN 5 d 11\n0 0 0 1.0\n{line}\n"
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        CoefficientTensor.loads(text)


def test_loads_refuses_a_header_only_file_naming_its_line():
    with pytest.raises(ValueError, match=re.escape(repr(CoefficientTensor.FORMAT_HEADER))):
        CoefficientTensor.loads(f"{CoefficientTensor.FORMAT_HEADER}\n\n")


@pytest.mark.parametrize("header", ["N x d 11", "N 5 d 1.5", "N 5 d"])
def test_loads_refuses_a_non_integer_header_naming_its_line(header):
    with pytest.raises(ValueError, match=re.escape(repr(header))):
        CoefficientTensor.loads(f"{CoefficientTensor.FORMAT_HEADER}\n{header}\n0 0 0 1.0\n")


@pytest.mark.parametrize("line", ["0 0 x 1.0", "0.5 0 0 1.0", "0 0 0 one"])
def test_loads_refuses_a_non_numeric_entry_naming_its_line(line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        CoefficientTensor.loads(f"{CoefficientTensor.FORMAT_HEADER}\nN 5 d 11\n0 0 0 1.0\n{line}\n")
