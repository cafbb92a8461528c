import random
from fractions import Fraction

import mpmath as mp
import pytest

from helpers import (
    _frozen_derivative,
    classification_lattices,
    doubling_limit,
    frozen_charpoly,
    frozen_eigen_certificates,
    frozen_evaluate_matrix,
    frozen_inverse,
    frozen_loxodromic_payload,
    frozen_mat_mul,
    frozen_mat_pow,
    frozen_poly_gcd,
    frozen_squarefree_part,
    oracle_tag,
    parabolic_payload_ok,
    random_word,
    reference_fixed_vector,
)
from parabolic_lab import isometry
from parabolic_lab.errors import ContractError, DimensionMismatchError, PreconditionError
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
from parabolic_lab.linalg_exact import det_exact
from parabolic_lab.polynomials import (
    charpoly,
    degree,
    minimal_polynomial,
    strip_cyclotomic_factors,
)
from parabolic_lab.surface222 import WORD_PAIRS

U = hyperbolic_plane()
PELL = diagonal_lattice(2, -1)
U2 = U.direct_sum(diagonal_lattice(-2))


def _quasi_unipotent(g: LatticeIsometry) -> bool:
    """Every irreducible factor of g's charpoly is cyclotomic."""
    return strip_cyclotomic_factors(charpoly(g.matrix))[0] == (1,)


def _semisimple(g: LatticeIsometry) -> bool:
    """rad(chi)(M) = 0, chi the charpoly and rad its squarefree part, on the frozen kernels."""
    rad = frozen_squarefree_part(frozen_charpoly(g.matrix))
    return not any(map(any, frozen_evaluate_matrix(rad, g.matrix)))


def test_verify_isometry():
    assert verify_isometry(U, [[1, 0], [0, 1]])
    assert verify_isometry(U, [[0, 1], [1, 0]])
    assert verify_isometry(PELL, [[3, 2], [4, 3]])
    assert not verify_isometry(U, [[1, 1], [0, 1]])
    with pytest.raises(PreconditionError):
        LatticeIsometry(U, ((1, 1), (0, 1)))


def _negated(g: LatticeIsometry) -> LatticeIsometry:
    return LatticeIsometry(g.lattice, tuple(tuple(-x for x in row) for row in g.matrix))


def _root_reflection(lat: QuadLattice, k: int) -> LatticeIsometry:
    """x -> x + q(x, e_k) e_k, the reflection in a basis vector with q(e_k, e_k) = -2."""
    n = lat.rank
    return LatticeIsometry(lat, tuple(
        tuple(int(i == j) + (i == k) * lat.gram[j][k] for j in range(n)) for i in range(n)))


def test_classify_identity_and_swap():
    assert classify(LatticeIsometry(U, ((1, 0), (0, 1)))) == Elliptic(order=1)
    swap = classify(LatticeIsometry(U, ((0, 1), (1, 0))))
    assert isinstance(swap, OutsideSOPlus)
    assert swap.det == -1 and swap.time_preserving
    minus = classify(LatticeIsometry(U, ((-1, 0), (0, -1))))
    assert isinstance(minus, OutsideSOPlus) and not minus.time_preserving
    # det -1 and time-reversing words of rank 3 and 10: classify reads det off the charpoly
    lox10 = _unimodular_word(1, [(0, 2, False), (1, 3, False), (0, 9, False)])
    refl10 = _root_reflection(lox10.lattice, 4)
    cases = [
        (SIGMA["x"], -1, True),
        (_negated(SIGMA["x"]), 1, False),
        (_negated(compose(SIGMA["y"], SIGMA["z"])), -1, False),
        (compose(_root_reflection(U2, 2), eichler_transvection(U2, (1, 0, 0), (0, 0, 1))), -1, True),
        (refl10, -1, True),
        (compose(refl10, lox10), -1, True),
        (_negated(lox10), 1, False),
        (_negated(refl10), -1, False),
    ]
    for g, det, time_ok in cases:
        cls = classify(g)
        assert cls == OutsideSOPlus(det=det, time_preserving=time_ok), (g.matrix, cls)
        assert cls.det == det_exact(g.matrix) == g.det


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
    calls, det_calls = [], []
    monkeypatch.setattr(isometry, "charpoly", lambda m: calls.append(m) or charpoly(m))
    monkeypatch.setattr(isometry, "det_exact", lambda m: det_calls.append(m) or det_exact(m))
    g = LatticeIsometry(PELL, ((3, 2), (4, 3)))
    assert isinstance(classify(g), Loxodromic) and len(calls) == 1
    # one trichotomy per isometry: limit_nef_class reads the verdict classify computed
    t = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    assert isinstance(classify(t), Parabolic) and classify(t) is classify(t)
    assert limit_nef_class(t, (2, 1, 0)) == (1.0, 0.0, 0.0) and len(calls) == 2
    # det comes off the charpoly too, also for a verdict outside SO+
    assert isinstance(classify(LatticeIsometry(U, ((0, 1), (1, 0)))), OutsideSOPlus)
    assert len(calls) == 3 and det_calls == []
    # the kept verdict is no field: eq, hash and repr see the matrix and lattice only
    fresh = LatticeIsometry(U2, t.matrix)
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)


def test_spectrum_is_computed_once_per_charpoly(monkeypatch):
    # g, a conjugate of g and g^-1 share one charpoly, so its cyclotomic stripping and
    # lambda's bracket are computed for the first of them only
    isometry._spectrum.cache_clear()
    calls = []
    for name in ("isolate_largest_root_above", "strip_cyclotomic_factors"):
        def counted(*args, _fn=getattr(isometry, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(isometry, name, counted)
    te = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    g = compose(te, eichler_transvection(U2, (0, 1, 0), (0, 0, 1)))
    words = [g, compose(compose(te, g), inverse(te)), inverse(g)]
    assert len({w.matrix for w in words}) == 3
    verdicts = [classify(w) for w in words]
    assert sorted(calls) == ["isolate_largest_root_above", "strip_cyclotomic_factors"]
    assert isometry._spectrum.cache_parameters()["maxsize"] == isometry.SPECTRUM_MEMO
    assert isometry._spectrum.cache_info().currsize == 1
    for w, cls in zip(words, verdicts):
        old = frozen_loxodromic_payload(w)
        assert isinstance(cls, Loxodromic) and cls.eigenvalue._mpf_ == verdicts[0].eigenvalue._mpf_
        assert cls.eigenvalue == old.eigenvalue
        assert _same_direction(cls.expanding, old.expanding), (w.matrix, cls, old)
        assert _same_direction(cls.contracting, old.contracting), (w.matrix, cls, old)
    # a raise caches nothing: neither the verdict nor the charpoly's spectrum
    isometry._spectrum.cache_clear()
    monkeypatch.setattr(isometry, "isolate_largest_root_above", lambda f: None)
    fresh = LatticeIsometry(U2, g.matrix)
    with pytest.raises(ContractError, match="no real eigenvalue > 1"):
        classify(fresh)
    assert isometry._spectrum.cache_info().currsize == 0
    monkeypatch.undo()
    assert classify(fresh) == verdicts[0]


def test_classify_inverse_matches():
    g = LatticeIsometry(PELL, ((3, 2), (4, 3)))
    c, ci = classify(g), classify(inverse(g))
    assert isinstance(ci, Loxodromic)
    assert abs(float(c.eigenvalue) - float(ci.eigenvalue)) < 1e-12
    assert max(abs(a - b) for a, b in zip(c.expanding, ci.contracting)) < 1e-9
    t = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    assert classify(t).fixed_vector == classify(inverse(t)).fixed_vector


def test_inverse_through_the_gram_matrix():
    seed = build_parabolic_seed_lattice(4, 3).lattice
    assert abs(det_exact(seed.gram)) == 6 and abs(seed.scaled_gram_inverse[1]) > 1  # not unimodular
    flip_x = LatticeIsometry(seed, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    seed_word = compose(eichler_transvection(seed, (0, 0, 1), (0, 1, 0)), flip_x)
    cases = [
        LatticeIsometry(PELL, ((3, 2), (4, 3))),  # diag(2, -1)
        seed_word,
        compose(seed_word, eichler_transvection(seed, (0, 0, 1), (0, 2, 0))),
        _unimodular_word(1, [(0, 2, False), (1, 3, False), (0, 9, False), (1, 6, False)]),
    ]
    for g in cases:
        n = g.lattice.rank
        for k in (1, 2, 3):
            inv = power(g, -k).matrix
            assert all(type(x) is int for row in inv for x in row)
            assert [list(row) for row in inv] == frozen_mat_pow(frozen_inverse(g.matrix), k)
        assert compose(g, inverse(g)).matrix == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))
        assert compose(inverse(g), g) == compose(g, inverse(g))


def _transvection_letters(lat, pairs):
    """Each Eichler transvection t(e, v) of `pairs` and its inverse."""
    letters = []
    for e, v in pairs:
        t = eichler_transvection(lat, e, v)
        letters += [t, inverse(t)]
    return letters


def test_inverse_matches_the_frozen_gram_conjugate():
    """inverse(g) is G^-1 M^T G on transvection letters, their words and a seed lattice with d > 1."""
    families = []
    for copies in (1, 2):
        lat = U
        for _ in range(copies):
            lat = lat.direct_sum(e8_lattice())
        n = lat.rank
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        families.append(_transvection_letters(lat, [(unit[axis], unit[k]) for axis in (0, 1)
                                                    for k in range(2, n)]))
    marked = build_parabolic_seed_lattice(4, 3)
    seed = marked.lattice
    assert seed.scaled_gram_inverse[1] > 1
    families.append(_transvection_letters(
        seed, [(marked.y, (0, 1, 0)), (marked.y, (0, 1, 1)), ((1, 0, -2), (0, 1, 0))]))
    rng = random.Random(2828)
    cases = [g for letters in families for g in letters]
    for _ in range(30):
        letters = families[rng.randrange(len(families))]
        a, b, c = (letters[rng.randrange(len(letters))] for _ in range(3))
        cases.append(compose(compose(a, b), c))
    ginv = {}
    for g in cases:
        lat, n = g.lattice, g.lattice.rank
        if lat not in ginv:
            ginv[lat] = frozen_inverse(lat.gram)
        gram_conjugate = frozen_mat_mul(ginv[lat], frozen_mat_mul(list(zip(*g.matrix)), lat.gram))
        assert [list(row) for row in inverse(g).matrix] == gram_conjugate
        assert compose(g, inverse(g)).matrix == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))


def test_inverse_refuses_a_non_integral_quotient():
    lat = diagonal_lattice(2, -1)
    g = LatticeIsometry(lat, ((3, 2), (4, 3)))
    lat.__dict__["scaled_gram_inverse"] = ([[1, 0], [0, 1]], 3)  # not d G^-1
    with pytest.raises(ContractError, match="not integral"):
        inverse(g)


def test_transvection_examples():
    t0 = eichler_transvection(U2, (1, 0, 0), (0, 0, 0))
    assert t0.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    t = eichler_transvection(U2, (1, 0, 0), (0, 0, 1))
    assert t.apply((1, 0, 0)) == (1, 0, 0)
    cls = classify(t)
    assert isinstance(cls, Parabolic) and cls.fixed_vector == (1, 0, 0)
    assert _quasi_unipotent(t) and not _semisimple(t)
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
    assert _quasi_unipotent(swap) and _semisimple(swap)
    lox = LatticeIsometry(PELL, ((3, 2), (4, 3)))
    assert not _quasi_unipotent(lox) and _semisimple(lox)


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
    with pytest.raises(DimensionMismatchError, match="vector length 2 != lattice rank 3"):
        limit_nef_class(t, (2, 1))
    with pytest.raises(PreconditionError, match="vector needs integer entries"):
        limit_nef_class(t, (Fraction(5, 2), 1, 0))  # in the positive cone: q(w, w) = 5
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
    # N^2 w is then a negative multiple of the fixed vector: its exact 0 still prints as 0.0
    t4 = eichler_transvection(lat.direct_sum(diagonal_lattice(-2)), (-1, 1, 1, 0), (0, 1, -1, 0))
    assert repr(limit_nef_class(t4, (1, 2, 2, 0))) == "(1.0, -1.0, -1.0, 0.0)"


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


def test_elliptic_matches_squarefree_minimal_polynomial_on_fuzz_words():
    # a quasi-unipotent element of SO+(1, n) is semisimple (squarefree minimal
    # polynomial) exactly when classify calls it Elliptic
    rng = random.Random(4242)
    lattices = classification_lattices()
    seen = set()
    for _ in range(300):
        lat, gens = lattices[rng.randrange(len(lattices))]
        g = random_word(lat, gens, rng)
        cls = classify(g)
        if not isinstance(cls, (Elliptic, Parabolic)):
            continue
        mu = minimal_polynomial([list(r) for r in g.matrix])
        squarefree = degree(frozen_poly_gcd(mu, _frozen_derivative(mu))) == 0
        assert isinstance(cls, Elliptic) == squarefree, g.matrix
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
