"""The compiled float evaluator against the loop it replaced, and the 1 x 1
shortcut of min_eigenvalue_numeric against LAPACK, bit for bit."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pmicert.ring import ExtRational
from pmicert.algebra import (
    FloatEvaluator,
    Polynomial,
    min_eigenvalue_numeric,
    monomials_upto,
)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes: +0.0 and -0.0 differ."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference(poly: Polynomial, batch: np.ndarray) -> np.ndarray:
    """The values at the rows of batch in the order of the loop the evaluator
    replaced: each monomial 1.0 times its variables, each repeated by its
    exponent; each coefficient p/d + q/d sqrt(r); terms added in term order
    to a sum that starts at 0.0."""
    total = np.zeros(len(batch))
    for alpha, c in poly.terms.items():
        p, q, d, r = c.parts()
        coeff = p / d + q / d * math.sqrt(r) if q else p / d
        mono = np.ones(len(batch))
        for i, e in enumerate(alpha):
            for _ in range(e):
                mono *= batch[:, i]
        total += mono * coeff
    return total


def surd_poly(rng: random.Random, n: int, degree: int) -> Polynomial:
    """About half the monomials up to degree, each with a coefficient
    a + b sqrt(r) (b = 0 at times) for one radicand r of the polynomial."""
    r = rng.choice([2, 3, 5, 7])
    terms = {}
    for alpha in monomials_upto(n, degree):
        if rng.random() < 0.5:
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            b = Fraction(rng.randint(-40, 40), rng.randint(1, 9)) if rng.random() < 0.7 else 0
            terms[alpha] = ExtRational(a, b, r)
    return Polynomial(n, terms)


@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_loop(seed):
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    n = 1 + seed % 4
    polys = [surd_poly(rng, n, rng.randint(0, 6)) for _ in range(4)]
    polys.append(Polynomial.zero(n))
    evaluate = FloatEvaluator(n, polys)
    for size in (1, 2, 7, 4096):
        batch = gen.uniform(-1.5, 1.5, (size, n))
        values = evaluate(batch)
        assert values.shape == (len(polys), size)
        for poly, row in zip(polys, values):
            assert same_bits(row, reference(poly, batch))


@pytest.mark.parametrize("seed", range(4))
def test_concatenated_batch_is_concatenated_values(seed):
    # the batched refine sweeps of the sphere estimate rely on this: a
    # point's value does not depend on the batch it sits in
    rng = random.Random(100 + seed)
    gen = np.random.default_rng(seed)
    n = 1 + seed
    evaluate = FloatEvaluator(n, [surd_poly(rng, n, 6) for _ in range(3)])
    parts = [gen.uniform(-2.0, 2.0, (size, n)) for size in (1, 2, 7, 1, 64)]
    whole = evaluate(np.concatenate(parts))
    assert same_bits(whole, np.concatenate([evaluate(p) for p in parts], axis=1))
    assert same_bits(whole, np.concatenate([evaluate(row[None]) for row in np.concatenate(parts)],
                                           axis=1))


def test_negative_square_at_zero_is_positive_zero():
    # the first term -1.0 * 0.0 * 0.0 is -0.0, and 0.0 + -0.0 is +0.0
    x = Polynomial.variable(1, 0)
    for batch in (np.zeros((1, 1)), np.zeros((7, 1))):
        values = FloatEvaluator(1, [-x * x])(batch)
        assert same_bits(values, np.zeros((1, len(batch))))
    value = (-x * x).evaluate_float([0.0])
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestOneByOneEigenvalue:
    VALUES = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]

    def test_equals_lapack_bitwise(self, monkeypatch):
        stack = np.array(self.VALUES).reshape(-1, 1, 1)
        want = np.linalg.eigvalsh(stack)[:, 0]
        singles = [np.linalg.eigvalsh(m)[0] for m in stack]

        def refuse(*args):
            raise AssertionError("LAPACK was called for a 1 x 1 matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        low = min_eigenvalue_numeric(stack)
        assert same_bits(low, want) and same_bits(low, stack[:, 0, 0])
        for m, one in zip(stack, singles):
            value = min_eigenvalue_numeric(m)
            assert isinstance(value, float) and same_bits(value, one)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError):
            min_eigenvalue_numeric(np.array([[bad]]))
        stack = np.ones((5, 1, 1))
        stack[3, 0, 0] = bad
        with pytest.raises(ValueError):
            min_eigenvalue_numeric(stack)
