import random

import mpmath as mp
import pytest

from helpers import (
    classification_lattices,
    doubling_limit,
    oracle_tag,
    parabolic_payload_ok,
    random_word,
    reference_fixed_vector,
)
from parabolic_lab import isometry
from parabolic_lab.errors import ContractError, PreconditionError
from parabolic_lab.isometry import (
    Elliptic,
    LatticeIsometry,
    Loxodromic,
    OutsideSOPlus,
    Parabolic,
    classify,
    compose,
    eichler_transvection,
    inverse,
    is_quasi_unipotent,
    is_semisimple,
    limit_nef_class,
    power,
    verify_isometry,
)
from parabolic_lab.lattice import (
    QuadLattice,
    build_parabolic_seed_lattice,
    diagonal_lattice,
    hyperbolic_plane,
)
from parabolic_lab.polynomials import charpoly, degree, derivative, minimal_polynomial, poly_gcd

U = hyperbolic_plane()
PELL = diagonal_lattice(2, -1)
U2 = U.direct_sum(diagonal_lattice(-2))


def test_verify_isometry():
    assert verify_isometry(U, [[1, 0], [0, 1]])
    assert verify_isometry(U, [[0, 1], [1, 0]])
    assert verify_isometry(PELL, [[3, 2], [4, 3]])
    assert not verify_isometry(U, [[1, 1], [0, 1]])
    with pytest.raises(PreconditionError):
        LatticeIsometry(U, ((1, 1), (0, 1)))


def test_classify_identity_and_swap():
    assert classify(LatticeIsometry(U, ((1, 0), (0, 1)))) == Elliptic(order=1)
    swap = classify(LatticeIsometry(U, ((0, 1), (1, 0))))
    assert isinstance(swap, OutsideSOPlus)
    assert swap.det == -1 and swap.time_preserving
    minus = classify(LatticeIsometry(U, ((-1, 0), (0, -1))))
    assert isinstance(minus, OutsideSOPlus) and not minus.time_preserving


def test_classify_loxodromic_pell():
    g = LatticeIsometry(PELL, ((3, 2), (4, 3)))
    cls = classify(g)
    assert isinstance(cls, Loxodromic)
    assert charpoly([list(r) for r in g.matrix]) == (1, -6, 1)
    with mp.workdps(40):
        assert abs(cls.eigenvalue - (3 + 2 * mp.sqrt(2))) < mp.mpf(10) ** -30
    # lambda on the contracting direction is the reciprocal (float check)
    v = cls.contracting
    mv = [sum(m * x for m, x in zip(row, v)) for row in g.matrix]
    lam_prime = mv[0] / v[0]
    assert abs(float(cls.eigenvalue) * lam_prime - 1) < 1e-10
    # characteristic polynomial is reciprocal-compatible: x^n p(1/x) = +-p(x)
    p = charpoly([list(r) for r in g.matrix])
    rev = tuple(reversed(p))
    assert rev == p or rev == tuple(-c for c in p)


def test_classify_computes_the_charpoly_once(monkeypatch):
    calls = []
    monkeypatch.setattr(isometry, "charpoly", lambda m: calls.append(m) or charpoly(m))
    g = LatticeIsometry(PELL, ((3, 2), (4, 3)))
    assert isinstance(classify(g), Loxodromic) and len(calls) == 1


def test_classify_inverse_matches():
    g = LatticeIsometry(PELL, ((3, 2), (4, 3)))
    c, ci = classify(g), classify(inverse(g))
    assert isinstance(ci, Loxodromic)
    assert abs(float(c.eigenvalue) - float(ci.eigenvalue)) < 1e-12
    assert max(abs(a - b) for a, b in zip(c.expanding, ci.contracting)) < 1e-9
    t = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    assert classify(t).fixed_vector == classify(inverse(t)).fixed_vector


def test_transvection_examples():
    t0 = eichler_transvection(U2, (1, 0, 0), (0, 0, 0))
    assert t0.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    t = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    assert t.apply((1, 0, 0)) == (1, 0, 0)
    cls = classify(t)
    assert isinstance(cls, Parabolic) and cls.fixed_vector == (1, 0, 0)
    assert is_quasi_unipotent(t) and not is_semisimple(t)
    # closure: product of transvections with the same e fixes e
    t2 = eichler_transvection(U2, (1, 0, 0), (1, 0, 1))
    prod = compose(t, t2)
    assert verify_isometry(U2, prod.matrix) and prod.apply((1, 0, 0)) == (1, 0, 0)


def test_transvection_preconditions():
    with pytest.raises(PreconditionError):
        eichler_transvection(U2, (1, 1, 0), (0, 0, 1))  # e not isotropic
    with pytest.raises(PreconditionError):
        eichler_transvection(U2, (1, 0, 0), (0, 1, 0))  # v not orthogonal to e
    odd = U.direct_sum(diagonal_lattice(-1))
    with pytest.raises(PreconditionError):
        eichler_transvection(odd, (1, 0, 0), (0, 0, 1))  # q(v,v) odd


def test_quasi_unipotent_semisimple_examples():
    swap = LatticeIsometry(U, ((0, 1), (1, 0)))
    assert is_quasi_unipotent(swap) and is_semisimple(swap)
    lox = LatticeIsometry(PELL, ((3, 2), (4, 3)))
    assert not is_quasi_unipotent(lox) and is_semisimple(lox)


def test_elliptic_order_exact():
    rot = LatticeIsometry(
        U.direct_sum(diagonal_lattice(-2, -2)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    )
    cls = classify(rot)
    assert cls == Elliptic(order=4)
    for j in range(1, 4):
        assert power(rot, j).matrix != power(rot, 0).matrix
    assert power(rot, 4).matrix == power(rot, 0).matrix


def test_limit_nef_class():
    t = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    d = limit_nef_class(t, (2, 1, 0))
    assert max(abs(a - b) for a, b in zip(d, (1.0, 0.0, 0.0))) < 1e-9
    d2 = limit_nef_class(t, (3, 2, 1))
    assert max(abs(a - b) for a, b in zip(d, d2)) < 1e-9
    with pytest.raises(PreconditionError):
        limit_nef_class(LatticeIsometry(U2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))), (2, 1, 0))
    with pytest.raises(PreconditionError):
        limit_nef_class(t, (1, 0, 0))  # boundary vector, q = 0
    with pytest.raises(PreconditionError, match="positive first nonzero"):
        limit_nef_class(t, (-2, -1, 0))
    with pytest.raises(PreconditionError, match="wrong length"):
        limit_nef_class(t, (2, 1))
    with pytest.raises(PreconditionError, match="got Loxodromic"):
        limit_nef_class(LatticeIsometry(PELL, ((3, 2), (4, 3))), (1, 0))
    with pytest.raises(PreconditionError, match="got OutsideSOPlus"):
        limit_nef_class(LatticeIsometry(U2, ((0, 1, 0), (1, 0, 0), (0, 0, 1))), (2, 1, 0))
    # the direction is exact: a transvection's limit is its e, with no rounding residue
    assert d == (1.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        limit_nef_class(t, (2, 1, 0), normalization="sup")


def test_limit_on_slowly_converging_parabolic():
    # charpoly (x - 1)^3: the normalized drift of g^n w converges like 1/n, so
    # exponent doubling does not settle to 1e-12 before 2^40
    g = LatticeIsometry(U2, ((0, 1, 0), (1, 4, 4), (0, -2, -1)))
    assert charpoly([list(r) for r in g.matrix]) == (-1, 3, -3, 1)
    assert classify(g) == Parabolic(fixed_vector=(1, 1, -1))
    assert limit_nef_class(g, (2, 1, 0)) == (1.0, 1.0, -1.0)
    assert doubling_limit(g, (2, 1, 0)) is None
    # the limit (-1, 1, 1) lies in w's cone but is reported, like the fixed
    # vector, with its first nonzero coordinate positive
    lat = QuadLattice(((-2, 0, 0), (0, 0, 1), (0, 1, 0)))
    t = eichler_transvection(lat, (-1, 1, 1), (0, 1, -1))
    assert classify(t) == Parabolic(fixed_vector=(1, -1, -1))
    assert lat.bbf((1, 2, 2), (-1, 1, 1)) > 0
    assert limit_nef_class(t, (1, 2, 2)) == (1.0, -1.0, -1.0)


def test_twisted_parabolic():
    # a transvection on U + <-2> direct-summed with -I on <-2> + <-2>: det 1,
    # charpoly (x - 1)^3 (x + 1)^2, so the unipotent part is g^2, not g
    lat = U2.direct_sum(diagonal_lattice(-2, -2))
    t = eichler_transvection(U2, (1, 0, 0), (0, 0, 1)).matrix
    m = tuple(row + (0, 0) for row in t) + ((0, 0, 0, -1, 0), (0, 0, 0, 0, -1))
    g = LatticeIsometry(lat, m)
    assert g.det == 1
    assert charpoly([list(r) for r in m]) == (-1, 1, 2, -2, -1, 1)
    assert oracle_tag(g) == ("Parabolic", None)
    cls = classify(g)
    assert cls == Parabolic(fixed_vector=(1, 0, 0, 0, 0))
    assert cls.fixed_vector == reference_fixed_vector(g)
    assert limit_nef_class(g, (2, 1, 0, 0, 0)) == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert limit_nef_class(g, (3, 2, 1, 1, 0)) == (1.0, 0.0, 0.0, 0.0, 0.0)
    # without the transvection the twist alone is elliptic of order 2
    twist = LatticeIsometry(lat, tuple(
        tuple(int(i == j) * (-1 if i >= 3 else 1) for j in range(5)) for i in range(5)))
    assert classify(twist) == Elliptic(order=2)
    with pytest.raises(PreconditionError, match="got Elliptic"):
        limit_nef_class(twist, (2, 1, 0, 0, 0))


def test_limit_matches_doubling_oracle_on_fuzz_words():
    rng = random.Random(5150)
    lattices = classification_lattices()
    checked = 0
    for _ in range(300):
        lat, gens = lattices[rng.randrange(len(lattices))]
        g = random_word(lat, gens, rng)
        cls = classify(g)
        if not isinstance(cls, Parabolic):
            continue
        w = lat.positive_witness
        d = limit_nef_class(g, w)
        # the limit is the canonical direction of the fixed vector, exactly
        sup = max(abs(x) for x in cls.fixed_vector)
        assert d == tuple(x / sup for x in cls.fixed_vector)
        want = doubling_limit(g, w)
        if want is not None:
            assert max(abs(a - b) for a, b in zip(d, want)) < 1e-9
            checked += 1
    assert checked >= 90


def test_is_semisimple_matches_squarefree_minimal_polynomial_on_fuzz_words():
    rng = random.Random(4242)
    lattices = classification_lattices()
    seen = set()
    for _ in range(300):
        lat, gens = lattices[rng.randrange(len(lattices))]
        g = random_word(lat, gens, rng)
        mu = minimal_polynomial([list(r) for r in g.matrix])
        squarefree = degree(poly_gcd(mu, derivative(mu))) == 0
        assert is_semisimple(g) == squarefree, g.matrix
        seen.add(squarefree)
    assert seen == {True, False}


def test_parabolic_fixed_vector_unique_and_stable_under_powers():
    seed = build_parabolic_seed_lattice(2, 5)
    t = eichler_transvection(seed.lattice, seed.y, seed.x)
    cls = classify(t)
    assert cls.fixed_vector == (0, 0, 1)
    for k in (2, 3, 5):
        assert classify(power(t, k)).fixed_vector == cls.fixed_vector
    assert parabolic_payload_ok(t, cls.fixed_vector)


def test_classify_requires_hyperbolic_signature():
    with pytest.raises(PreconditionError):
        classify(LatticeIsometry(diagonal_lattice(1, 1), ((1, 0), (0, 1))))


def test_fuzz_words_against_oracle():
    rng = random.Random(20240809)
    lattices = classification_lattices()
    for _ in range(120):
        lat, gens = lattices[rng.randrange(len(lattices))]
        g = random_word(lat, gens, rng)
        cls = classify(g)
        tag, order = oracle_tag(g)
        assert cls.tag == tag, (g.matrix, cls.tag, tag)
        if isinstance(cls, Elliptic):
            assert cls.order == order
        if isinstance(cls, Parabolic):
            assert parabolic_payload_ok(g, cls.fixed_vector)
            assert cls.fixed_vector == reference_fixed_vector(g)
        if isinstance(cls, Loxodromic):
            assert float(cls.eigenvalue) > 1
        # inverse symmetry of the tag
        assert classify(inverse(g)).tag == cls.tag
