"""Dirichlet characters mod q with exact root-of-unity bookkeeping.

A character is represented by its exponent table: for each residue a the
stored value e(a) means chi(a) = exp(2*pi*i*e(a)/d), where d is the exact
multiplicative order of chi; residues not coprime to q carry the sentinel
-1.  The table is built from an explicit cyclic decomposition of (Z/qZ)*:
the smallest primitive root for each odd prime-power factor, -1 for 4,
and the pair {-1, 5} for 2^k with k >= 3.  All arithmetic on exponents is
integer arithmetic; complex values appear only at evaluation boundaries,
exactly for the quadrant roots 1, i, -1, -i.  This module alone turns
exponents into values: `roots_of_unity(d)`, one table per order, which the
twists read at the exponents, and `value_row(chi)`, one cached row chi(a),
a = 0..q, per character, which every other layer reads (`values(chi)` is
its residues 0..q-1).

The conductor is read off the table by its definition: the least f | q
such that chi(a) = 1 at every unit a = 1 (mod f).  No case analysis of the
prime-power factors enters; chi is primitive when its conductor is q.

Characters are addressed as (q, index) where index is the position in the
canonical enumeration: lexicographic over the exponent vectors with respect
to the fixed generator list, so index 0 is always the principal character.
This labelling is deliberately not Conrey's.  `character` is the one
constructor and the one decoder of an index into its exponent vector
(`enumerate_characters` calls it at every index); `conjugate_index` is the
one encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "DirichletCharacter",
    "enumerate_characters",
    "character",
    "roots_of_unity",
    "value_row",
    "values",
    "evaluate",
    "gauss_sum",
    "root_number",
    "conjugate_character",
    "conjugate_index",
    "real_sign_table",
]

MAX_MODULUS = 10_000


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(p: int, e: int) -> int:
    """Smallest primitive root modulo the odd prime power p**e."""
    pe = p**e
    phi = (p - 1) * p ** (e - 1)
    prime_factors = [f for f, _ in _factorize(phi)]
    g = 2
    while True:
        if math.gcd(g, pe) == 1 and all(pow(g, phi // f, pe) != 1 for f in prime_factors):
            return g
        g += 1


def _crt_lift(residue: int, pe: int, q: int) -> int:
    """The unit mod q that is `residue` mod pe and 1 mod q/pe."""
    m2 = q // pe
    return (residue * m2 * pow(m2, -1, pe) + pe * pow(pe, -1, m2)) % q


@dataclass(frozen=True)
class _GroupData:
    primes: tuple[int, ...]  # the primes dividing q
    orders: tuple[int, ...]
    exponent: int  # lcm of the cyclic orders
    dlog: np.ndarray  # (q, r) int64, row a = discrete logs of a; junk off units
    units: np.ndarray  # (q,) bool


@lru_cache(maxsize=None)
def _group_structure(q: int) -> _GroupData:
    if not isinstance(q, int) or q < 1 or q > MAX_MODULUS:
        raise ValueError(f"modulus must be an integer in [1, {MAX_MODULUS}], got {q!r}")
    factors = _factorize(q)
    generators: list[int] = []
    orders: list[int] = []
    for p, e in factors:
        pe = p**e
        if p > 2:
            generators.append(_crt_lift(_primitive_root(p, e), pe, q))
            orders.append((p - 1) * p ** (e - 1))
        elif e >= 2:  # (Z/2Z)* is trivial; -1 generates (Z/4Z)*, and with 5 all of (Z/2^eZ)*
            generators.append(_crt_lift(pe - 1, pe, q))
            orders.append(2)
            if e >= 3:
                generators.append(_crt_lift(5, pe, q))
                orders.append(pe // 4)

    dlog = np.zeros((q, len(orders)), dtype=np.int64)
    units = np.zeros(q, dtype=bool)
    pow_tables = [[pow(g, k, q) for k in range(s)] for g, s in zip(generators, orders)]
    for tup in product(*(range(s) for s in orders)):
        a = 1 % q
        for k, tab in zip(tup, pow_tables):
            a = a * tab[k] % q
        dlog[a] = tup
        units[a] = True
    return _GroupData(tuple(p for p, _ in factors), tuple(orders), math.lcm(*orders), dlog, units)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q, stored as exact exponents of a d-th root
    of unity.  (modulus, index) is its identity: equality and hash read only
    these two, as they determine every other field."""

    modulus: int
    index: int
    order: int = field(compare=False)
    value_exponents: np.ndarray = field(compare=False, repr=False)  # int32, length q; -1 where gcd(a, q) > 1
    generator_exponents: tuple[int, ...] = field(compare=False, repr=False)
    parity: int = field(compare=False, repr=False)  # 0 if chi(-1) = 1, else 1
    conductor: int = field(compare=False, repr=False)
    is_principal: bool = field(compare=False, repr=False)
    is_real: bool = field(compare=False, repr=False)
    is_primitive: bool = field(compare=False, repr=False)

    def __post_init__(self):
        self.value_exponents.setflags(write=False)


def _root_of_unity(e: int, d: int) -> complex:
    """exp(2*pi*i*e/d), exact for the four quadrant roots."""
    num = (4 * e) % (4 * d)
    if num % d == 0:
        return ((1 + 0j), 1j, (-1 + 0j), -1j)[num // d]
    ang = 2.0 * math.pi * e / d
    return complex(math.cos(ang), math.sin(ang))


@lru_cache(maxsize=None)
def roots_of_unity(d: int) -> tuple[complex, ...]:
    """exp(2 pi i e / d) for e < d, each from `_root_of_unity`, built once per order d."""
    return tuple(_root_of_unity(e, d) for e in range(d))


@lru_cache(maxsize=None)
def value_row(chi: DirichletCharacter) -> np.ndarray:
    """chi(a) for a = 0..q (0 off the units), read-only and cached per (q, index):
    its first q entries are `values`, its last q the L-kernel's weights chi(1..q)."""
    exponents = np.append(chi.value_exponents, chi.value_exponents[0])  # residue q is residue 0
    row = np.array((*roots_of_unity(chi.order), 0j))[exponents]  # exponent -1 reads the 0
    row.setflags(write=False)
    return row


def values(chi: DirichletCharacter) -> np.ndarray:
    """chi(a) for a = 0..q-1 (0 off the units), a read-only view of `value_row`."""
    return value_row(chi)[:-1]


def character(q: int, index: int) -> DirichletCharacter:
    """The character addressed (q, index) in the canonical enumeration."""
    data = _group_structure(q)
    orders, e_grp = data.orders, data.exponent
    phi = math.prod(orders)
    if not 0 <= index < phi:
        raise ValueError(f"character index {index} out of range [0, {phi}) for q={q}")
    t = []
    rem = index
    for s in reversed(orders):
        t.append(rem % s)
        rem //= s
    t = tuple(reversed(t))

    d = math.lcm(*(s // math.gcd(s, ti) for s, ti in zip(orders, t)))
    weights = np.array([ti * (e_grp // s) for ti, s in zip(t, orders)], dtype=np.int64)
    raw = (data.dlog @ weights) % e_grp
    # every value is a d-th root of unity, so raw is a multiple of e_grp // d
    table = np.where(data.units, (raw * d) // e_grp, -1).astype(np.int32)

    # The conductor is the least f | q with chi(a) = 1 at every unit a = 1 (mod f):
    # exponent 0 at the units among residues 1, 1 + f, 1 + 2f, ..., where the
    # non-units read -1.  The f | q that qualify are closed under gcd and under
    # multiples dividing q, so they are the multiples of the least, and dividing
    # q by each prime for as long as the quotient qualifies ends at the least.
    conductor = q
    for p in data.primes:
        while conductor % p == 0 and table[1 :: conductor // p].max() == 0:
            conductor //= p
    return DirichletCharacter(
        modulus=q,
        index=index,
        order=d,
        value_exponents=table,
        generator_exponents=t,
        parity=int(table[-1] > 0),  # the exponent of chi(q - 1) = chi(-1)
        conductor=conductor,
        is_principal=(d == 1),
        is_real=(d <= 2),
        is_primitive=(conductor == q),
    )


@lru_cache(maxsize=8)
def _all_characters(q: int) -> tuple[DirichletCharacter, ...]:
    return tuple(character(q, i) for i in range(math.prod(_group_structure(q).orders)))


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q in the canonical deterministic order.

    Index 0 is the principal character; the order is lexicographic over the
    exponent vectors on the fixed generator list, so it is independent of
    platform and thread count.  The characters are built once per modulus
    (they are immutable) and each call returns a fresh list of them.
    """
    return list(_all_characters(q))


def conjugate_index(chi: DirichletCharacter) -> int:
    """The conjugate character's index, without building it."""
    index = 0
    for s, ti in zip(_group_structure(chi.modulus).orders, chi.generator_exponents):
        index = index * s + (s - ti) % s
    return index


def conjugate_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The complex-conjugate character (same q, negated exponents)."""
    return character(chi.modulus, conjugate_index(chi))


def evaluate(chi: DirichletCharacter, n: int) -> complex:
    """chi(n) as a complex number; exactly in {-1, 0, 1} for real characters."""
    return complex(values(chi)[n % chi.modulus])


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_{a=0}^{q-1} chi(a) e^{2 pi i a / q}; requires chi primitive."""
    if not chi.is_primitive:
        raise ValueError(
            f"Gauss sum requires a primitive character; conductor {chi.conductor} != modulus {chi.modulus}"
        )
    total = 0j
    for v, root in zip(values(chi).tolist(), roots_of_unity(chi.modulus)):
        if v:  # a unit
            total += v * root
    return total


def root_number(chi: DirichletCharacter) -> complex:
    """epsilon_chi = tau(chi) / (i^parity * sqrt(q)); unimodular for primitive chi."""
    if not chi.is_primitive:
        raise ValueError("root number requires a primitive character")
    tau = gauss_sum(chi)
    return tau / ((1j**chi.parity) * math.sqrt(chi.modulus))


def real_sign_table(chi: DirichletCharacter) -> np.ndarray:
    """Values of a real character as an int8 array over residues (entries -1, 0, 1)."""
    if not chi.is_real:
        raise ValueError("sign table is only defined for real characters")
    return values(chi).real.astype(np.int8)
