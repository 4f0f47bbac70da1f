from fractions import Fraction

import pytest

from khovsolve.fields import GF, QQ, PrimeField, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 9716633}
    for n in range(2, 120):
        assert is_prime(n) == all(n % q for q in range(2, n)) or n in primes
    assert is_prime(9716633)
    assert not is_prime(9716631)
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_large():
    # 2^61 - 1 is a Mersenne prime
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 3)


def test_qq_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert QQ.parse("-7/3") == Fraction(-7, 3)
    assert QQ.fmt(Fraction(-7, 3)) == "-7/3"
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_gf_arithmetic():
    F = GF(101)
    assert F.add(100, 2) == 1
    assert F.mul(F.inv(7), 7) == 1
    assert F.parse("1/2") == F.inv(2)
    assert F.neg(1) == 100
    assert F.from_int(-1) == 100
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_gf_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF((1 << 63) + 9)  # beyond the modulus cap


def test_numpy_compatibility_flag():
    assert GF(9716633).numpy_compatible
    big = GF((1 << 61) - 1)
    assert not big.numpy_compatible
    assert big.mul(big.modulus - 1, big.modulus - 1) == 1


def test_equality_and_hash():
    assert GF(7) == GF(7)
    assert GF(7) != GF(11)
    assert QQ == QQ
    assert QQ != GF(7)
    assert hash(GF(7)) == hash(GF(7))
    assert isinstance(GF(7), PrimeField)
