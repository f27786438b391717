import math
import random
from collections import Counter

import numpy as np
import pytest

from factorrace.characters import (
    MAX_MODULUS,
    character,
    conjugate_character,
    conjugate_index,
    enumerate_characters,
    evaluate,
    gauss_sum,
    real_sign_table,
    root_number,
    value_row,
    values,
)
from oracles import unit_roots


def phi(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1) if q > 1 else 1


def units(q):
    return [a for a in range(q) if math.gcd(a, q) == 1] if q > 1 else [0]


def test_enumerate_q4():
    chars = enumerate_characters(4)
    assert len(chars) == 2
    assert chars[0].is_principal
    chi = chars[1]
    assert evaluate(chi, 1) == 1
    assert evaluate(chi, 3) == -1
    assert evaluate(chi, 2) == 0
    assert chi.is_real and chi.is_primitive and chi.parity == 1


def test_enumerate_q1_trivial():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    assert all(evaluate(chars[0], n) == 1 for n in range(12))
    assert chars[0].is_principal and chars[0].is_primitive


def test_enumerate_q7_quadratic():
    chars = enumerate_characters(7)
    assert len(chars) == 6
    real_np = [c for c in chars if c.is_real and not c.is_principal]
    assert len(real_np) == 1
    quad = real_np[0]
    assert evaluate(quad, 3) == -1
    squares = sorted({a * a % 7 for a in range(1, 7)})
    assert squares == [1, 2, 4]
    assert all(evaluate(quad, a) == 1 for a in squares)


@pytest.mark.parametrize("bad_q", [0, -1, MAX_MODULUS + 1])
def test_modulus_domain_errors(bad_q):
    with pytest.raises(ValueError):
        enumerate_characters(bad_q)


def test_large_modulus_single_character():
    chi = character(MAX_MODULUS, 0)
    assert chi.is_principal
    assert evaluate(chi, 1) == 1


def test_enumeration_deterministic():
    assert enumerate_characters(36) == enumerate_characters(36)
    for i, chi in enumerate(enumerate_characters(15)):
        assert chi == character(15, i)


def test_enumeration_returns_a_fresh_list():
    chars = enumerate_characters(12)
    expected = list(chars)
    chars.reverse()
    chars.pop()
    chars.append(None)
    again = enumerate_characters(12)
    assert again is not chars
    assert again == expected


@pytest.mark.parametrize("q", list(range(1, 37)))
def test_complete_multiplicativity(q):
    for chi in enumerate_characters(q):
        exps = chi.value_exponents
        d = chi.order
        us = units(q)
        for a in us:
            for b in us:
                assert (exps[a] + exps[b]) % d == exps[a * b % q], (q, chi.index, a, b)
        assert exps[1 % q] == 0
        for a in range(q):
            if q > 1 and math.gcd(a, q) != 1:
                assert exps[a] == -1 and evaluate(chi, a) == 0


@pytest.mark.parametrize("q", list(range(3, 61)))
def test_parity_consistency(q):
    for chi in enumerate_characters(q):
        e = chi.value_exponents[q - 1]
        assert e in (0, chi.order / 2)
        assert chi.parity == (0 if e == 0 else 1)


def test_orthogonality_up_to_200():
    for q in range(1, 201):
        chars = enumerate_characters(q)
        n = len(chars)
        mat = np.zeros((n, q), dtype=complex)
        for i, chi in enumerate(chars):
            mat[i] = [evaluate(chi, a) for a in range(q)]
        gram = mat @ mat.conj().T / n
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12, q


def test_real_character_values_exact():
    for q in (3, 4, 7, 8, 12, 21):
        for chi in enumerate_characters(q):
            if not chi.is_real:
                continue
            for a in range(2 * q):
                v = evaluate(chi, a)
                assert v in (-1 + 0j, 0j, 1 + 0j)
                assert v.imag == 0.0
            table = real_sign_table(chi)
            assert all(complex(int(table[a % q])) == evaluate(chi, a) for a in range(q))


def test_gauss_sum_chi4_exact():
    chi = enumerate_characters(4)[1]
    assert gauss_sum(chi) == 2j


def test_gauss_sum_q1():
    assert gauss_sum(enumerate_characters(1)[0]) == 1


def test_gauss_sum_q3():
    chi = enumerate_characters(3)[1]
    assert abs(gauss_sum(chi) - 1j * math.sqrt(3)) < 1e-12


def test_gauss_sum_imprimitive_error():
    principal8 = enumerate_characters(8)[0]
    with pytest.raises(ValueError):
        gauss_sum(principal8)
    lifted = next(c for c in enumerate_characters(8) if c.conductor == 4)
    with pytest.raises(ValueError):
        root_number(lifted)


def test_gauss_modulus_primitive_up_to_100():
    for q in range(1, 101):
        for chi in enumerate_characters(q):
            if chi.is_primitive:
                tau = gauss_sum(chi)
                assert abs(abs(tau) ** 2 - q) < 1e-10, (q, chi.index)


def test_root_number_chi4():
    chi = enumerate_characters(4)[1]
    assert abs(root_number(chi) - 1) < 1e-12


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 11])
def test_root_number_real_primitive_is_one(q):
    found = False
    for chi in enumerate_characters(q):
        if chi.is_real and chi.is_primitive and not chi.is_principal:
            found = True
            eps = root_number(chi)
            assert abs(eps.imag) < 1e-12
            assert abs(eps - 1) < 1e-12
    assert found


def test_root_number_complex_mod5_unimodular():
    chi = enumerate_characters(5)[1]
    assert evaluate(chi, 2) == 1j
    assert abs(abs(root_number(chi)) - 1) < 1e-12


def _brute_conductor(chi):
    """Smallest f | q with chi trivial on every unit a = 1 (mod f)."""
    q = chi.modulus
    for f in sorted(d for d in range(1, q + 1) if q % d == 0):
        if all(
            chi.value_exponents[a] == 0
            for a in range(q)
            if (q == 1 or math.gcd(a, q) == 1) and a % f == 1 % f
        ):
            return f
    return q


@pytest.mark.parametrize("q", list(range(1, 61)))
def test_conductor_matches_brute_force(q):
    for chi in enumerate_characters(q):
        assert chi.conductor == _brute_conductor(chi), (q, chi.index)
        assert chi.is_primitive == (chi.conductor == q)


def _primitive_count(f):
    """phi*(f), the number of primitive characters mod f: multiplicative, with
    phi*(p) = p - 2 and phi*(p^e) = p^(e-2) (p - 1)^2 for e >= 2."""
    count, p = 1, 2
    while f > 1:
        e = 0
        while f % p == 0:
            f //= p
            e += 1
        if e == 1:
            count *= p - 2
        elif e >= 2:
            count *= p ** (e - 2) * (p - 1) ** 2
        p += 1
    return count


@pytest.mark.parametrize("q", [64, 243, 1000, 2048, 2187, 3125, 9240, 10000])
def test_conductors_count_the_primitive_characters(q):
    """Every character mod q is induced by exactly one primitive character
    mod its conductor f | q, so each f is the conductor of phi*(f) of them;
    the brute-force definition agrees on a seeded sample of each modulus."""
    chars = enumerate_characters(q)
    divisors = [f for f in range(1, q + 1) if q % f == 0]
    expected = {f: n for f in divisors if (n := _primitive_count(f))}
    assert Counter(chi.conductor for chi in chars) == expected
    for chi in chars:
        assert chi.is_primitive == (chi.conductor == q), (q, chi.index)
    for chi in random.Random(q).sample(chars, 8):
        assert chi.conductor == _brute_conductor(chi), (q, chi.index)


def test_conjugate_character():
    chars = enumerate_characters(5)
    conj = conjugate_character(chars[1])
    assert conj.index == 3
    for a in range(5):
        assert evaluate(conj, a) == evaluate(chars[1], a).conjugate()
    quad = enumerate_characters(7)[3]
    assert conjugate_character(quad) == quad


@pytest.mark.parametrize("q", [1, 2, 8, 24, 63, 840, 1000])
def test_conjugate_index_negates_every_exponent(q):
    """conjugate_index names the character whose exponent at every unit is
    minus this one's mod the order, without building it."""
    for chi in enumerate_characters(q):
        conj = character(q, conjugate_index(chi))
        units = chi.value_exponents >= 0
        assert conj.order == chi.order
        assert np.array_equal(conj.value_exponents[units], -chi.value_exponents[units] % chi.order), (q, chi.index)


def test_phi_count_matches():
    for q in range(1, 80):
        assert len(enumerate_characters(q)) == phi(q)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 24, 60, 63, 100, 163])
def test_values_are_the_root_table_read_by_every_layer(q):
    """values(chi) is chi(a) from the oracle's root table at every residue,
    bit for bit, complex characters included; evaluate, real_sign_table and
    the L-kernel's weights (a = 1..q) read the same bits; the table is
    read-only.  values and the weights are views of the one cached row
    value_row, chi(a) for a = 0..q."""
    for chi in enumerate_characters(q):
        table = values(chi)
        roots = unit_roots(chi.order)
        expected = np.array([roots[e] if e >= 0 else 0j for e in chi.value_exponents.tolist()])
        assert table.dtype == np.complex128 and table.tobytes() == expected.tobytes(), (q, chi.index)
        assert np.array([evaluate(chi, a) for a in range(q)]).tobytes() == table.tobytes()
        row = value_row(chi)
        assert row is value_row(character(q, chi.index)) and len(row) == q + 1 and not row.flags.writeable
        assert table.base is row and row[1:].tobytes() == np.roll(table, -1).tobytes()
        if chi.is_real:
            assert real_sign_table(chi).astype(np.complex128).tobytes() == table.tobytes()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("q", [1, 4, 15, 24, 100])
def test_a_character_is_its_modulus_and_index(q):
    chars = enumerate_characters(q)
    for i, chi in enumerate(chars):
        again = character(q, i)
        assert again == chi and hash(again) == hash(chi) and again is not chi
    assert len(set(chars)) == len(chars)
    assert chars[0] != character(q + 1, 0)
    if len(chars) > 1:
        assert chars[0] != chars[1]
