import random
from fractions import Fraction

import pytest

from lsglue import (
    DimensionMismatch,
    Matrix,
    Singular,
    Vector,
    solve_square,
)

import oracles


def test_inverse_toy_overlap_matrix():
    # N12^-1 = [[6, -4], [-4, 12]] / 56, both columns from one elimination
    n12 = Matrix.of([[12, 4], [4, 6]])
    columns = [Vector.of([1, 0]), Vector.of([0, 1])]
    expected = (Vector.of(["6/56", "-4/56"]), Vector.of(["-4/56", "12/56"]))
    solutions = solve_square(n12, *columns)
    assert solutions == expected
    for e, x in zip(columns, solutions):
        assert n12.matvec(x) == e


def test_inverse_singular():
    with pytest.raises(Singular) as err:
        solve_square(Matrix.of([[2, 4], [1, 2]]), Vector.of([1, 0]))
    assert err.value.rank == 1


def test_solve_square_toy_delta():
    a = Matrix.of([[12, 4], [4, 6]])
    b = Vector.of(["127/210", "-68/105"])
    (x,) = solve_square(a, b)
    assert x == Vector.of(["653/5880", "-1070/5880"])
    assert a.matvec(x) == b


def test_solve_square_identity():
    b = Vector.of([3, "5/7"])
    assert solve_square(Matrix.of([[1, 0], [0, 1]]), b) == (b,)


def test_solve_square_halved_overlap_sums():
    # Cramer by hand: det = 14, x = (27-14)/14, y = (42-18)/14
    (x,) = solve_square(Matrix.of([[6, 2], [2, 3]]), Vector.of([9, 7]))
    assert x == Vector.of(["13/14", "12/7"])


def test_solve_square_singular():
    with pytest.raises(Singular) as err:
        solve_square(Matrix.of([[1, 1], [1, 1]]), Vector.of([1, 2]))
    assert err.value.rank == 1


def _random_matrix(rng, nrows, ncols):
    return Matrix.of(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_random_solve_square_zero_residual():
    rng = random.Random(29)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        rows = [oracles.as_fractions(a.row(i)) for i in range(n)]
        if oracles.det(rows) == 0:
            continue
        b = Vector.of([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
        (x,) = solve_square(a, b)
        assert a.matvec(x) == b
        done += 1


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        solve_square(Matrix.of([[1, 2]]), Vector.of([1]))
    with pytest.raises(DimensionMismatch):
        Matrix.of([[1, 2]]).matvec(Vector.of([1]))
    with pytest.raises(DimensionMismatch):
        Vector.of([1]) + Vector.of([1, 2])
    with pytest.raises(DimensionMismatch, match="ragged matrix rows"):
        Matrix(((Fraction(1), Fraction(2)), (Fraction(3),)), 2)
