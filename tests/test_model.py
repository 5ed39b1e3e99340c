import random
import sys
from fractions import Fraction

import pytest

import lsglue as lg
from lsglue.model import (
    affine_features,
    build_normal_system,
    loss_eval,
    model_from_json,
    solve_least_squares,
)

import oracles
from conftest import make_dataset, rand_fraction, rand_nonneg_fraction, rand_points

F = Fraction


def test_affine_features_1d():
    phi = affine_features(1)
    assert phi.param_dim == 2
    assert phi.evaluate(lg.Vector.of([7])) == lg.Vector.of([7, 1])


def test_affine_features_2d():
    phi = affine_features(2)
    assert phi.param_dim == 3
    assert phi.evaluate(lg.Vector.of([2, 3])) == lg.Vector.of([2, 3, 1])
    assert phi.evaluate(lg.Vector.zeros(2)) == lg.Vector.of([0, 0, 1])


def test_normal_system_toy_overlap(toy_dataset, affine1):
    system = build_normal_system(lg.restrict(toy_dataset, {2, 3, 4}), affine1)
    assert system.nmat == lg.Matrix.of([[12, 4], [4, 6]])
    assert system.nu == lg.Vector.of([-18, -14])


def test_normal_system_zero_weights(toy_dataset, affine1):
    system = build_normal_system(lg.restrict(toy_dataset, set()), affine1)
    assert system.nmat == lg.Matrix.of([[0, 0], [0, 0]]) and system.nu.is_zero()


def _chart_system(data, features, keep):
    return build_normal_system(lg.restrict(data, keep), features)


def test_solve_toy_charts(toy_dataset, affine1):
    a1 = solve_least_squares(_chart_system(toy_dataset, affine1, {1, 2, 3, 4}))
    a2 = solve_least_squares(_chart_system(toy_dataset, affine1, {2, 3, 4, 5}))
    a12 = solve_least_squares(_chart_system(toy_dataset, affine1, {2, 3, 4}))
    assert a1.a_hat == lg.Vector.of(["11/42", "50/21"])
    assert a2.a_hat == lg.Vector.of(["13/15", "26/15"])
    assert a12.a_hat == lg.Vector.of(["13/14", "12/7"])


def test_solve_global_fit(toy_dataset, affine1):
    fit = solve_least_squares(build_normal_system(toy_dataset, affine1))
    assert fit.a_hat == lg.Vector.of(["55/113", "306/113"])


def test_gradient_zero_certificate(toy_dataset, affine1):
    system = build_normal_system(toy_dataset, affine1)
    fit = solve_least_squares(system)
    assert (system.nu + system.nmat.matvec(fit.a_hat)).is_zero()


def test_singular_chart_carries_rank(toy_dataset, affine1):
    system = _chart_system(toy_dataset, affine1, {3})
    with pytest.raises(lg.Singular) as err:
        solve_least_squares(system, chart="D1|D3")
    assert err.value.rank == 1
    assert err.value.cell == "D1|D3"


def test_loss_interpolating_point(affine1):
    data = lg.WeightedDataSet.of([(3, 7)])
    assert loss_eval(data, affine1, lg.Vector.of([2, 1])) == 0
    assert loss_eval(data, affine1, lg.Vector.of([0, 0])) == lg.rat(49)


def test_loss_zero_weights(toy_dataset, affine1):
    zeroed = lg.restrict(toy_dataset, set())
    assert loss_eval(zeroed, affine1, lg.Vector.of([5, 5])) == 0


def test_loss_minimality_toy_overlap(toy_dataset, affine1):
    overlap = lg.restrict(toy_dataset, {2, 3, 4})
    a12 = lg.Vector.of(["13/14", "12/7"])
    best = loss_eval(overlap, affine1, a12)
    assert loss_eval(overlap, affine1, a12 + lg.Vector.of([1, 0])) > best


def test_n_symmetric_and_psd_random():
    rng = random.Random(41)
    for _ in range(30):
        dim = rng.randint(1, 2)
        points = rand_points(rng, rng.randint(1, 8), dim)
        weights = [rand_nonneg_fraction(rng) for _ in points]
        data = make_dataset(points, weights)
        system = build_normal_system(data, affine_features(dim))
        assert system.nmat.transpose() == system.nmat
        probe = lg.Vector.of([rand_fraction(rng) for _ in range(system.param_dim)])
        assert probe.dot(system.nmat.matvec(probe)) >= 0


def test_weight_scaling_leaves_solution_fixed(toy_dataset, affine1):
    system = build_normal_system(toy_dataset, affine1)
    heavier = lg.WeightedDataSet(
        tuple(lg.WeightedPoint(p.x, p.y, 2 * p.weight) for p in toy_dataset.points),
        toy_dataset.ambient_dim,
    )
    doubled = build_normal_system(heavier, affine1)
    assert doubled.nu == system.nu.scale(2)
    assert doubled.nmat == lg.Matrix.of([[2 * a for a in row] for row in system.nmat.rows])
    assert solve_least_squares(doubled).a_hat == solve_least_squares(system).a_hat


def test_matches_oracle_sums():
    rng = random.Random(43)
    for _ in range(25):
        dim = rng.randint(1, 2)
        points = rand_points(rng, rng.randint(1, 8), dim)
        weights = [rand_fraction(rng) for _ in points]
        data = make_dataset(points, weights)
        exponents = affine_features(dim).monomials
        nu, nmat = oracles.normal_sums(points, weights, exponents)
        system = build_normal_system(data, affine_features(dim))
        assert oracles.as_fractions(system.nu) == nu
        assert [oracles.as_fractions(system.nmat.row(i)) for i in range(len(nu))] == nmat


def test_monomial_features_beyond_affine():
    # quadratic in one variable: phi(x) = (x^2, x, 1)
    quad = lg.FeatureMap.of([(2,), (1,), (0,)])
    data = lg.WeightedDataSet.of([(-1, 1), (0, 0), (1, 1), (2, 4)])
    fit = solve_least_squares(build_normal_system(data, quad))
    assert fit.a_hat == lg.Vector.of([1, 0, 0])  # exactly y = x^2


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="no limit on decimal integer strings in this interpreter"
)


def limit_bits():
    """The bit length of the largest integer with DIGIT_LIMIT digits."""
    return (10**DIGIT_LIMIT - 1).bit_length()


@needs_digit_limit
@pytest.mark.parametrize("x", [2, F(1, 2), -2])
def test_power_bound_at_digit_limit(x):
    # 2**e has e + 1 bits: e = limit_bits() - 1 gives a DIGIT_LIMIT-digit power
    point = lg.Vector.of([x])
    at_limit = limit_bits() - 1
    assert len(str(2**at_limit)) == DIGIT_LIMIT
    phi = lg.FeatureMap.of([[at_limit], [0]])
    assert phi.evaluate(point) == lg.Vector.of([lg.rat(x) ** at_limit, 1])
    above = lg.FeatureMap.of([[at_limit + 1], [0]])
    with pytest.raises(lg.LsglueError, match=rf"monomial \[{at_limit + 1}\] exceeds"):
        above.evaluate(point)


@needs_digit_limit
def test_power_bound_between_bit_estimates():
    # 3**e has between e + 1 and 2e bits, so the bound must compute the power
    e = limit_bits() // 2
    while (3 ** (e + 1)).bit_length() <= limit_bits():
        e += 1
    point = lg.Vector.of([3])
    assert lg.FeatureMap.of([[e]]).evaluate(point) == lg.Vector.of([lg.rat(3) ** e])
    with pytest.raises(lg.LsglueError, match="exceeds the limit"):
        lg.FeatureMap.of([[e + 1]]).evaluate(point)


@needs_digit_limit
def test_power_bound_off_without_digit_limit():
    power = limit_bits()
    sys.set_int_max_str_digits(0)
    try:
        value = lg.FeatureMap.of([[power]]).evaluate(lg.Vector.of([2]))
    finally:
        sys.set_int_max_str_digits(DIGIT_LIMIT)
    assert value == lg.Vector.of([lg.rat(2) ** power])


def test_empty_dataset_keeps_param_dim(affine1):
    system = build_normal_system(lg.WeightedDataSet((), 1), affine1)
    assert system.param_dim == 2
    assert system.nu == lg.Vector.zeros(2)
    assert system.nmat == lg.Matrix.of([[0, 0], [0, 0]])
    with pytest.raises(lg.Singular) as err:
        solve_least_squares(system)
    assert err.value.rank == 0


def test_model_from_json():
    assert model_from_json({"features": "affine"}, 1) == affine_features(1)
    mono = model_from_json({"features": "monomials", "exponents": [[1], [0]]}, 1)
    assert mono == affine_features(1)
    with pytest.raises(lg.LsglueError):
        model_from_json({"features": "cubic-splines"}, 1)
    with pytest.raises(lg.DimensionMismatch):
        model_from_json({"features": "monomials", "exponents": [[1, 0]]}, 1)


def test_feature_map_checks_its_monomials():
    with pytest.raises(lg.LsglueError, match="at least one monomial"):
        lg.FeatureMap(())
    with pytest.raises(lg.DimensionMismatch, match="mixed lengths"):
        lg.FeatureMap(((1,), (1, 0)))


def test_singular_chart_eliminates_once(toy_dataset, affine1, monkeypatch):
    # the rank in the message and on the error is the solver's own pivot count
    calls = []
    echelon = lg.linalg._row_echelon

    def counting(rows, columns):
        calls.append(rows)
        return echelon(rows, columns)

    monkeypatch.setattr(lg.linalg, "_row_echelon", counting)
    system = _chart_system(toy_dataset, affine1, {3})
    with pytest.raises(lg.Singular, match=r"rank 1 < 2") as err:
        solve_least_squares(system, chart="D3")
    assert err.value.rank == 1 and err.value.cell == "D3"
    assert calls == [system.nmat.rows]
