import random

import mpmath as mp
import pytest

from helpers import (
    _frozen_derivative,
    classification_lattices,
    doubling_limit,
    frozen_eigen_certificates,
    frozen_loxodromic_payload,
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
    is_semisimple,
    limit_nef_class,
    power,
    verify_isometry,
)
from parabolic_lab.lattice import (
    QuadLattice,
    build_parabolic_seed_lattice,
    diagonal_lattice,
    e8_lattice,
    hyperbolic_plane,
)
from parabolic_lab.polynomials import (
    charpoly,
    degree,
    minimal_polynomial,
    poly_gcd,
    strip_cyclotomic_factors,
)
from parabolic_lab.surface222 import WORD_PAIRS

U = hyperbolic_plane()
PELL = diagonal_lattice(2, -1)
U2 = U.direct_sum(diagonal_lattice(-2))


def _quasi_unipotent(g: LatticeIsometry) -> bool:
    """Every irreducible factor of g's charpoly is cyclotomic."""
    return strip_cyclotomic_factors(charpoly(g.matrix))[0] == (1,)


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
    # one trichotomy per isometry: limit_nef_class reads the verdict classify computed
    t = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    assert isinstance(classify(t), Parabolic) and classify(t) is classify(t)
    assert limit_nef_class(t, (2, 1, 0)) == (1.0, 0.0, 0.0) and len(calls) == 2
    # the kept verdict is no field: eq, hash and repr see the matrix and lattice only
    fresh = LatticeIsometry(U2, t.matrix)
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)


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
    assert _quasi_unipotent(t) and not is_semisimple(t)
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
    assert _quasi_unipotent(swap) and is_semisimple(swap)
    lox = LatticeIsometry(PELL, ((3, 2), (4, 3)))
    assert not _quasi_unipotent(lox) and is_semisimple(lox)


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
        squarefree = degree(poly_gcd(mu, _frozen_derivative(mu))) == 0
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
    g = LatticeIsometry(diagonal_lattice(1, 1), ((1, 0), (0, 1)))
    # a refusal is not kept as a verdict: every call raises it again
    for call in (classify, classify, lambda g: limit_nef_class(g, (1, 0))):
        with pytest.raises(PreconditionError, match=r"signature \(1, n\)"):
            call(g)


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


def _unimodular_word(copies: int, letters) -> LatticeIsometry:
    """A word on U + E8(-1)^copies in the transvections along e_axis (axis 0 or 1, in U)
    and e_k (k >= 2, in the E8 summands); letters are (axis, k, inverted)."""
    lat = U
    for _ in range(copies):
        lat = lat.direct_sum(e8_lattice())
    n = lat.rank
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    g = LatticeIsometry(lat, tuple(unit))
    for axis, k, inverted in letters:
        t = eichler_transvection(lat, unit[axis], unit[k])
        g = compose(g, inverse(t) if inverted else t)
    return g


def _same_direction(new, old) -> bool:
    """Entry by entry ==, except an exact 0.0 where the elimination left noise below 1e-40."""
    return len(new) == len(old) and all(
        a == b or (a == 0.0 and abs(b) < 1e-40) for a, b in zip(new, old))


def test_loxodromic_payload_matches_the_frozen_elimination():
    rng = random.Random(1616)
    words = []
    for lat, gens in classification_lattices():
        words += [random_word(lat, gens, rng) for _ in range(30)]
    for copies in (1, 2):
        n = 2 + 8 * copies
        for _ in range(6):
            start = rng.randrange(2)
            words.append(_unimodular_word(copies, [
                ((start + i) % 2, rng.randrange(2, n), rng.random() < 0.5) for i in range(3)]))
    # the Pell matrix beside a fixed <-2>: both directions start with an exact 0
    words.append(LatticeIsometry(diagonal_lattice(-2, 2, -1), ((1, 0, 0), (0, 3, 2), (0, 4, 3))))
    checked = {}
    for g in words:
        cls = classify(g)
        if not isinstance(cls, Loxodromic):
            continue
        old = frozen_loxodromic_payload(g)
        assert all(next(x for x in d if x) > 0 for d in (cls.expanding, cls.contracting))
        assert cls.eigenvalue == old.eigenvalue, g.matrix
        assert _same_direction(cls.expanding, old.expanding), (g.matrix, cls, old)
        assert _same_direction(cls.contracting, old.contracting), (g.matrix, cls, old)
        checked[g.lattice.rank] = checked.get(g.lattice.rank, 0) + 1
    assert set(checked) == {2, 3, 4, 10, 18} and sum(checked.values()) >= 60, checked


# the seed-7 `exact` bench words 375 (rank 10) and 378 (rank 18), whose contracting
# directions the mpf elimination printed with -2.0164452537927412e-52 at an exact 0
NOISE_WORDS = [
    (1, [(1, 6, False), (0, 4, False), (1, 8, False)], 5),
    (2, [(1, 8, False), (0, 6, False), (1, 13, True)], 7),
]


@pytest.mark.parametrize("copies,letters,index", NOISE_WORDS, ids=["rank10", "rank18"])
def test_exact_zero_coordinate_prints_as_zero(copies, letters, index):
    g = _unimodular_word(copies, letters)
    cls = classify(g)
    assert frozen_loxodromic_payload(g).contracting[index] == -2.0164452537927412e-52
    assert cls.contracting[index] == 0.0 and cls.expanding[index] == 0.0
    # the exact eigenvector behind both directions, and both certificates, rechecked over Fractions
    p = charpoly(g.matrix)
    f, _ = strip_cyclotomic_factors(p)
    v = isometry._eigenvector_mod_f(g, p, [int(c) for c in f])
    assert not any(v[index]) and any(map(any, v))
    assert frozen_eigen_certificates(g, v, f) == (True, True)


def test_eigenvector_certificates_refuse_a_wrong_factor():
    g = LatticeIsometry(PELL, ((3, 2), (4, 3)))  # charpoly x^2 - 6x + 1
    with pytest.raises(ContractError, match=r"M v\(x\) != x v\(x\)"):
        isometry._eigenvector_mod_f(g, charpoly(g.matrix), [1, -3, 1])
    # eigenvalue 1 of a loxodromic word on U + <-2>: its eigenvector is not isotropic
    te = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    tf = eichler_transvection(U2, (0, 1, 0), (0, 0, 1))
    g = compose(te, tf)
    p = charpoly(g.matrix)
    assert isinstance(classify(g), Loxodromic) and sum(p) == 0  # p(1) = 0
    with pytest.raises(ContractError, match=r"q\(v\(x\), v\(x\)\) != 0"):
        isometry._eigenvector_mod_f(g, p, [-1, 1])


# Neron-Severi lattice of a (2,2,2) surface on H_x, H_y, H_z, and the action of the
# three involutions: sigma_x* sends H_x to -H_x + 2 H_y + 2 H_z and fixes H_y, H_z (Wehler 1988)
NS = QuadLattice(((0, 2, 2), (2, 0, 2), (2, 2, 0)))
SIGMA = {
    "x": LatticeIsometry(NS, ((-1, 0, 0), (2, 1, 0), (2, 0, 1))),
    "y": LatticeIsometry(NS, ((1, 2, 0), (0, -1, 0), (0, 2, 1))),
    "z": LatticeIsometry(NS, ((1, 0, 2), (0, 1, 2), (0, 0, -1))),
}


def test_neron_severi_action_of_the_surface_maps():
    # the two maps a Birkhoff random word draws from each preserve one fibration
    yz, xz = (compose(SIGMA[a], SIGMA[b]) for a, b in WORD_PAIRS)
    assert classify(yz) == Parabolic(fixed_vector=(1, 0, 0))  # H_x
    assert classify(xz) == Parabolic(fixed_vector=(0, 1, 0))  # H_y
    lox = classify(compose(yz, xz))
    assert isinstance(lox, Loxodromic)
    with mp.workdps(60):
        assert abs(lox.eigenvalue - (17 + 12 * mp.sqrt(2))) < mp.mpf(10) ** -40
    cls = classify(SIGMA["x"])
    assert isinstance(cls, OutsideSOPlus) and cls.det == -1
