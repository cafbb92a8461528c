"""Integral quadratic lattices with exact arithmetic.

A :class:`QuadLattice` is a symmetric integer Gram matrix; the bilinear
form it carries plays the role of the Beauville-Bogomolov-Fujiki pairing
on a Neron-Severi group.  Signatures, isotropic vectors and representation
scans are all computed exactly (Python integers and Fractions, no floats),
because they feed statements that are exact: a signature-(1, 2) sublattice
with an isotropic vector orthogonal to a fixed negative vector of square
at most -N certifies that no short negative class can sit orthogonal to
the isotropic one.

The seed construction :func:`build_parabolic_seed_lattice` returns the
rank-3 Gram

    [[a_sq, 0, 1], [0, -2N, 0], [1, 0, 0]]

with marked basis vectors a, x, y.  Here q(y) = 0, q(x) = -2N, x is
orthogonal to y, and every eta orthogonal to y with q(eta) < 0 satisfies
q(eta) <= -2N, since eta = m x + n y gives q(eta) = m^2 q(x).  The pairing
q(a, y) = 1 makes the Gram nondegenerate with signature (1, 2).  (-2N is
used rather than just <= -N to keep the lattice even.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .errors import DegenerateLatticeError, DimensionMismatchError, PreconditionError
from .exact import ParseError, integral, integral_rows
from .linalg_exact import det_exact, primitive_vector

Vector = tuple[int, ...]

_JSON_SAFE = 2**53
MAX_SCAN = 10**6  # box vectors one lattice scan may visit


@dataclass(frozen=True)
class QuadLattice:
    """An integral lattice given by a symmetric Gram matrix."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = tuple(map(tuple, integral_rows(self.gram, "Gram")))
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise PreconditionError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise PreconditionError("gram matrix must be symmetric")
        if det_exact(g) == 0:
            raise DegenerateLatticeError("gram matrix is degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def determinant(self) -> int:
        return det_exact(self.gram)

    def check_vector(self, v) -> Vector:
        v = tuple(integral(x, "vector") for x in v)
        if len(v) != self.rank:
            raise DimensionMismatchError(
                f"vector length {len(v)} != lattice rank {self.rank}"
            )
        return v

    def bbf(self, u, v) -> int:
        """The bilinear form u^T . gram . v, exactly."""
        u, v = self.check_vector(u), self.check_vector(v)
        gv = [sum(r * x for r, x in zip(row, v)) for row in self.gram]
        return sum(a * b for a, b in zip(u, gv))

    def q(self, v) -> int:
        return self.bbf(v, v)

    @cached_property
    def signature(self) -> tuple[int, int]:
        pos, neg, _ = _diagonalize(self.gram)
        if pos + neg < self.rank:
            raise DegenerateLatticeError("lattice has a zero eigenvalue")
        return pos, neg

    @cached_property
    def positive_witness(self) -> Vector:
        """A primitive integer vector with q(v, v) > 0, from the diagonalization."""
        _, _, witness = _diagonalize(self.gram)
        if witness is None:
            raise PreconditionError("lattice has no positive directions")
        return witness

    def direct_sum(self, other: "QuadLattice") -> "QuadLattice":
        n, m = self.rank, other.rank
        g = [[0] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                g[i][j] = self.gram[i][j]
        for i in range(m):
            for j in range(m):
                g[n + i][n + j] = other.gram[i][j]
        return QuadLattice(g)

    def to_json_dict(self, marks: dict[str, Vector] | None = None) -> dict:
        d = {"rank": self.rank, "gram": [[_json_int(x) for x in row] for row in self.gram]}
        if marks:
            d["marks"] = {k: [_json_int(x) for x in v] for k, v in marks.items()}
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuadLattice":
        if not isinstance(d, dict):
            raise ParseError(f"a lattice must be a JSON object, not {type(d).__name__}")
        lat = cls(d["gram"])
        if "rank" in d and integral(d["rank"], "rank") != lat.rank:
            raise PreconditionError("declared rank does not match gram size")
        return lat


def _json_int(x: int):
    # JSON numbers are only faithful up to 53 bits; fall back to strings
    return x if abs(x) <= _JSON_SAFE else str(x)


def _diagonalize(gram) -> tuple[int, int, Vector | None]:
    """Exact congruence diagonalization; returns (pos, neg, positive witness)."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add_basis(i, j, f):
        # e_i <- e_i + f e_j, updating the Gram congruently
        for k in range(n):
            m[i][k] += f * m[j][k]
        for k in range(n):
            m[k][i] += f * m[k][j]
        basis[i] = [a + f * b for a, b in zip(basis[i], basis[j])]

    pos = neg = 0
    witness = None
    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
                basis[i], basis[j] = basis[j], basis[i]
            else:
                j = next((k for k in range(i + 1, n) if m[i][k] != 0), None)
                if j is None:
                    continue  # zero row: degenerate direction
                add_basis(i, j, Fraction(1))
        d = m[i][i]
        if d > 0:
            pos += 1
            if witness is None:
                witness = primitive_vector(basis[i])
        else:
            neg += 1
        for k in range(i + 1, n):
            if m[k][i]:
                add_basis(k, i, -m[k][i] / d)
    return pos, neg, witness


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _square(gram):
    """v -> q(v, v) for an int tuple v, with the Gram rows bound once."""
    return lambda v: sum(a * sum(map(mul, row, v)) for a, row in zip(v, gram))


def _check_box(name: str, bound: int, visits: int) -> None:
    """Refuse an empty box, and one whose scan would visit more than MAX_SCAN vectors."""
    if bound < 1:
        raise PreconditionError(f"{name} must be >= 1")
    if visits > MAX_SCAN:
        raise PreconditionError(f"{name} makes the scan visit more than MAX_SCAN = {MAX_SCAN} vectors")


def _box(rank: int, bound: int):
    return itertools.product(range(-bound, bound + 1), repeat=rank)


def _half_box(rank: int, bound: int):
    """The nonzero box vectors whose first nonzero coordinate is positive, lexicographically."""
    for lead in reversed(range(rank)):
        for head in range(1, bound + 1):
            for tail in _box(rank - lead - 1, bound):
                yield (0,) * lead + (head,) + tail


def find_isotropic(lattice: QuadLattice, coeff_bound: int) -> list[Vector]:
    """All primitive isotropic vectors with sup-norm <= coeff_bound, up to sign.

    Returned with first nonzero coordinate positive, sorted
    lexicographically.  Bounded brute force; existence results for
    indefinite lattices of rank >= 5 (Meyer) are not exploited.
    """
    _check_box("coeff_bound", coeff_bound, ((2 * coeff_bound + 1) ** lattice.rank - 1) // 2)
    q = _square(lattice.gram)
    return [v for v in _half_box(lattice.rank, coeff_bound) if gcd(*v) == 1 and q(v) == 0]


def represents_in_range(
    lattice: QuadLattice, lo: int, hi: int, coeff_bound: int
) -> list[tuple[int, Vector]]:
    """Values q(v, v) in [lo, hi] attained by primitive boxed vectors.

    One witness per value: the lexicographically first primitive vector
    (sign-normalized) attaining it.  Sorted by value.
    """
    if lo > hi:
        raise PreconditionError("need lo <= hi")
    _check_box("coeff_bound", coeff_bound, ((2 * coeff_bound + 1) ** lattice.rank - 1) // 2)
    q = _square(lattice.gram)
    witnesses: dict[int, Vector] = {}
    for v in _half_box(lattice.rank, coeff_bound):
        if gcd(*v) == 1:
            val = q(v)
            if lo <= val <= hi and val not in witnesses:
                witnesses[val] = v
    return sorted(witnesses.items())


@dataclass(frozen=True)
class MarkedLattice:
    """A lattice together with the distinguished vectors of the seed construction."""

    lattice: QuadLattice
    a: Vector
    x: Vector
    y: Vector

    @property
    def marks(self) -> dict[str, Vector]:
        return {"a": self.a, "x": self.x, "y": self.y}

    def to_json_dict(self) -> dict:
        return self.lattice.to_json_dict(marks=self.marks)


def build_parabolic_seed_lattice(a_sq: int, big_n: int) -> MarkedLattice:
    """Rank-3 lattice guaranteeing a cusp with no short negatives orthogonal to it.

    See the module docstring for the Gram shape and the guarantees.  a_sq
    must be a positive even integer (evenness keeps the lattice even) and
    big_n a positive integer (the bound the negative vector must clear).
    """
    if a_sq <= 0 or a_sq % 2:
        raise PreconditionError("a_sq must be a positive even integer")
    if big_n < 1:
        raise PreconditionError("N must be >= 1")
    gram = ((a_sq, 0, 1), (0, -2 * big_n, 0), (1, 0, 0))
    return MarkedLattice(QuadLattice(gram), a=(1, 0, 0), x=(0, 1, 0), y=(0, 0, 1))


def scan_orthogonal_negatives(
    marked: MarkedLattice, box_bound: int = 10
) -> list[tuple[Vector, int]]:
    """Exhaustive scan for eta orthogonal to the marked y with q(eta) < 0.

    Returns the (eta, q(eta)) pairs found in the box, in lexicographic
    order; the seed-lattice guarantee is that every listed square is
    <= -2N, so none falls in (-2N, 0).

    Only the box points of y^perp are visited.  With k the last index
    where (Gy)_k != 0, the coordinates before k run over the box, v_k is
    solved from v . Gy = 0 and kept when it is an integer in the box, and
    the coordinates after k (where Gy vanishes) run freely: about
    (2B+1)^(n-1) vectors instead of (2B+1)^n.  When Gy = 0 every box
    vector is orthogonal and the whole box is scanned.
    """
    lat = marked.lattice
    y = lat.check_vector(marked.y)
    gy = [sum(map(mul, row, y)) for row in lat.gram]
    _check_box("box_bound", box_bound, (2 * box_bound + 1) ** (lat.rank - any(gy)))
    q = _square(lat.gram)
    return [(v, qv) for v in _orthogonal_box(gy, box_bound) if (qv := q(v)) < 0]


def _orthogonal_box(gy: list[int], bound: int):
    """The box vectors v with v . gy = 0, in order (see scan_orthogonal_negatives)."""
    k = max((i for i, g in enumerate(gy) if g), default=None)
    if k is None:
        yield from _box(len(gy), bound)
        return
    for head in _box(k, bound):
        vk, r = divmod(-sum(map(mul, head, gy)), gy[k])
        if not r and -bound <= vk <= bound:
            for tail in _box(len(gy) - k - 1, bound):
                yield head + (vk,) + tail


# ---------------------------------------------------------------------------
# stock lattices
# ---------------------------------------------------------------------------

def hyperbolic_plane() -> QuadLattice:
    """The even unimodular plane U with Gram [[0, 1], [1, 0]]."""
    return QuadLattice(((0, 1), (1, 0)))


def diagonal_lattice(*entries: int) -> QuadLattice:
    n = len(entries)
    return QuadLattice(
        tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))
    )


_E8_ADJ = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]


def e8_lattice() -> QuadLattice:
    """E8(-1): the negated Cartan matrix of E8, negative definite."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in _E8_ADJ:
        g[i][j] = g[j][i] = 1
    return QuadLattice(g)


def k3_lattice() -> QuadLattice:
    """U + U + U + E8(-1) + E8(-1), the rank-22 lattice with signature (3, 19)."""
    u = hyperbolic_plane()
    lat = u.direct_sum(u).direct_sum(u)
    e8m = e8_lattice()
    return lat.direct_sum(e8m).direct_sum(e8m)

