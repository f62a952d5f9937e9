"""Unit and property tests for the exact rings Z[sqrt2] and Z[omega]."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rings import zomega, zsqrt2
from repro.rings.zomega import ZOmega
from repro.rings.zsqrt2 import LAMBDA, LAMBDA_INV, SQRT2, ZSqrt2

small_ints = st.integers(min_value=-50, max_value=50)
zs2 = st.builds(ZSqrt2, small_ints, small_ints)
zw = st.builds(ZOmega, small_ints, small_ints, small_ints, small_ints)


class TestZSqrt2:
    def test_basic_arithmetic(self):
        x = ZSqrt2(1, 2)
        y = ZSqrt2(3, -1)
        assert x + y == ZSqrt2(4, 1)
        assert x - y == ZSqrt2(-2, 3)
        assert x * y == ZSqrt2(3 - 4, -1 + 6)

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == ZSqrt2(2, 0)

    def test_lambda_inverse(self):
        assert LAMBDA * LAMBDA_INV == ZSqrt2(1, 0)

    def test_float_embedding(self):
        assert float(ZSqrt2(1, 1)) == pytest.approx(1 + math.sqrt(2))

    @given(zs2, zs2)
    def test_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    @given(zs2)
    def test_conj_is_galois(self, x):
        assert float(x.conj()) == pytest.approx(x.a - x.b * math.sqrt(2), abs=1e-6)

    @given(zs2)
    def test_sign_matches_float(self, x):
        f = float(x)
        if abs(f) > 1e-9:
            assert x.is_negative() == (f < 0)

    @given(zs2, zs2)
    def test_divmod_euclidean(self, x, y):
        if y.is_zero():
            return
        q, r = x.divmod(y)
        assert q * y + r == x
        assert abs(r.norm()) < abs(y.norm())

    @given(zs2, zs2)
    def test_gcd_divides_both(self, x, y):
        if x.is_zero() and y.is_zero():
            return
        g = zsqrt2.gcd(x, y)
        assert g.divides(x) and g.divides(y)

    def test_doubly_positive(self):
        assert ZSqrt2(3, 1).is_doubly_positive()  # 3+s2>0, 3-s2>0
        assert not ZSqrt2(1, 1).is_doubly_positive()  # 1-s2<0
        assert ZSqrt2(0, 0).is_doubly_positive()

    def test_pow(self):
        assert LAMBDA**3 == LAMBDA * LAMBDA * LAMBDA
        assert LAMBDA**0 == ZSqrt2(1, 0)


class TestZOmega:
    def test_omega_powers(self):
        w = zomega.OMEGA
        assert w**8 == zomega.ONE
        assert w**4 == -zomega.ONE
        for n in range(16):
            assert ZOmega.omega_power(n) == w**n

    def test_complex_embedding(self):
        w = complex(zomega.OMEGA)
        assert w == pytest.approx(cmath.exp(1j * math.pi / 4))

    @given(zw, zw)
    def test_mul_matches_complex(self, x, y):
        assert complex(x * y) == pytest.approx(complex(x) * complex(y), abs=1e-6)

    @given(zw)
    def test_conj_matches_complex(self, x):
        assert complex(x.conj()) == pytest.approx(complex(x).conjugate(), abs=1e-6)

    @given(zw)
    def test_adj2_is_automorphism_order_two(self, x):
        assert x.adj2().adj2() == x

    @given(zw, zw)
    def test_adj2_homomorphism(self, x, y):
        assert (x * y).adj2() == x.adj2() * y.adj2()

    @given(zw)
    def test_norm_zs2_is_modulus_squared(self, x):
        n = x.norm_zs2()
        assert float(n) == pytest.approx(abs(complex(x)) ** 2, rel=1e-6, abs=1e-6)

    @given(zw, zw)
    def test_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    def test_sqrt2_constant(self):
        assert complex(zomega.SQRT2_OMEGA) == pytest.approx(math.sqrt(2))
        assert zomega.SQRT2_OMEGA * zomega.SQRT2_OMEGA == ZOmega(0, 0, 0, 2)

    @given(zw)
    def test_mul_sqrt2(self, x):
        assert x.mul_sqrt2() == x * zomega.SQRT2_OMEGA

    @given(zw)
    def test_sqrt2_divisibility_roundtrip(self, x):
        y = x.mul_sqrt2()
        assert y.is_divisible_by_sqrt2()
        assert y.div_sqrt2() == x

    @given(zw, zw)
    @settings(max_examples=60)
    def test_divmod_euclidean(self, x, y):
        if y.is_zero():
            return
        q, r = x.divmod(y)
        assert q * y + r == x
        assert r.norm() < y.norm()

    @given(zw, zw)
    @settings(max_examples=40)
    def test_gcd_divides_both(self, x, y):
        if x.is_zero() and y.is_zero():
            return
        g = zomega.gcd(x, y)
        assert g.divides(x) and g.divides(y)

    def test_delta_norm_identity(self):
        # delta = 1 + w satisfies conj(delta)*delta = sqrt(2) * lambda
        d = zomega.DELTA
        n = (d.conj() * d).to_zsqrt2()
        assert n == SQRT2 * LAMBDA

    def test_from_zsqrt2_roundtrip(self):
        x = ZSqrt2(3, -2)
        emb = ZOmega.from_zsqrt2(x)
        assert complex(emb) == pytest.approx(float(x))
