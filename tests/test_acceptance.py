"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance and budget is pinned here; nothing is deferred to later
calibration.  Thresholds marked "calibrated" were frozen against the
fixed-seed reference surface and the seeds below.
"""

import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    classification_lattices,
    fujiki_polarized_bruteforce,
    matching_sum,
    oracle_tag,
    parabolic_payload_ok,
    planted_relation_instance,
    random_word,
)
from parabolic_lab import surface222 as s2
from parabolic_lab.errors import BranchPointError, ContractError
from parabolic_lab.hodge import (
    FujikiStructure,
    HermitianForm,
    RigidityVerdict,
    amgm_mixed_ratios,
    amgm_rigidity_check,
    fujiki_polarized,
    fujiki_top,
    hafnian,
)
from parabolic_lab.isometry import (
    Elliptic,
    Loxodromic,
    Parabolic,
    classify,
    eichler_transvection,
    limit_nef_class,
    verify_isometry,
)
from parabolic_lab.lattice import (
    build_parabolic_seed_lattice,
    diagonal_lattice,
    hyperbolic_plane,
    scan_orthogonal_negatives,
)
from parabolic_lab.torus import TranslationVector, rational_hull
from parabolic_lab.exact import parse_real
from parabolic_lab.linalg_exact import hnf


def report(ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {label:58s} {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_trichotomy_oracle_agreement():
    t0 = time.time()
    rng = random.Random(20260808)
    lattices = classification_lattices()
    agree = 0
    total = 500
    for i in range(total):
        lat, gens = lattices[i % len(lattices)]
        g = random_word(lat, gens, rng)
        cls = classify(g)
        tag, order = oracle_tag(g)
        ok = cls.tag == tag
        if ok and isinstance(cls, Elliptic):
            ok = cls.order == order
        if ok and isinstance(cls, Parabolic):
            ok = parabolic_payload_ok(g, cls.fixed_vector)
        if ok and isinstance(cls, Loxodromic):
            ok = float(cls.eigenvalue) > 1
        agree += ok
    elapsed = time.time() - t0
    report(
        agree == total and elapsed < 30,
        "criterion 1: trichotomy vs independent oracle",
        f"{agree}/{total} agree, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_seed_lattice_grid():
    t0 = time.time()
    checked = 0
    for a_sq in (2, 4, 6, 8, 10):
        for big_n in (1, 2, 3, 4, 5):
            marked = build_parabolic_seed_lattice(a_sq, big_n)
            lat = marked.lattice
            assert lat.signature == (1, 2)
            assert lat.q(marked.y) == 0
            assert lat.q(marked.x) <= -big_n
            assert lat.bbf(marked.x, marked.y) == 0
            found = scan_orthogonal_negatives(marked, 10)
            assert found and all(q <= -big_n for _, q in found)
            assert not any(-big_n < q < 0 for _, q in found)
            checked += 1
    elapsed = time.time() - t0
    report(
        checked == 25 and elapsed < 10,
        "criterion 2: seed lattices on the 5x5 grid",
        f"{checked}/25 lattices, box B=10, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_parabolic_constructor():
    t0 = time.time()
    rng = random.Random(17)
    good = 0
    total = 100
    for _ in range(total):
        rank = rng.choice((3, 4))
        if rank == 3:
            lat = hyperbolic_plane().direct_sum(diagonal_lattice(-2 * rng.randint(1, 3)))
        else:
            lat = hyperbolic_plane().direct_sum(
                diagonal_lattice(-2 * rng.randint(1, 3), -2 * rng.randint(1, 3))
            )
        e = (1, 0) + (0,) * (rank - 2) if rng.random() < 0.5 else (0, 1) + (0,) * (rank - 2)
        tail = [rng.randint(-3, 3) for _ in range(rank - 2)]
        if not any(tail):
            tail[rng.randrange(len(tail))] = 1
        # v = multiple of e plus a definite-block tail: orthogonal to e by
        # construction, with even square, not proportional to e
        v = (rng.randint(-3, 3) * e[0], rng.randint(-3, 3) * e[1], *tail)
        t = eichler_transvection(lat, e, v)
        ok = verify_isometry(lat, t.matrix) and t.apply(e) == e
        cls = classify(t)
        ok = ok and isinstance(cls, Parabolic) and cls.fixed_vector == e
        w = tuple(2 if i == 0 else 1 if i == 1 else 0 for i in range(rank))
        direction = limit_nef_class(t, w)
        target = tuple(float(x) for x in e)
        ok = ok and max(abs(a - b) for a, b in zip(direction, target)) < 1e-9
        good += ok
    elapsed = time.time() - t0
    report(
        good == total,
        "criterion 3: transvections are parabolic with limit e",
        f"{good}/{total} triples, {elapsed:.1f}s",
    )


def test_criterion_4_rational_hull_recovery():
    t0 = time.time()
    rng = random.Random(31337)
    recovered = 0
    total = 200
    for _ in range(total):
        x, prec, want = planted_relation_instance(rng, max_n=6, max_height=1000)
        got = rational_hull(TranslationVector(x, prec), height_bound=10**6, tol=1e-24)
        if [list(r) for r in got.relation_basis] == hnf(want):
            recovered += 1
    independents = [
        ("sqrt2", "sqrt3"),
        ("sqrt2", "sqrt3", "sqrt5"),
        ("sqrt2+sqrt3", "sqrt5"),
        ("sqrt6", "sqrt10", "sqrt15"),
    ]
    full = 0
    for coords in independents:
        x = tuple(parse_real(c) for c in coords)
        h = rational_hull(TranslationVector(x), height_bound=10**6, tol=1e-24)
        full += h.dimension == len(coords) and not h.relation_basis
    elapsed = time.time() - t0
    report(
        recovered == total and full == len(independents),
        "criterion 4: planted relation lattices recovered exactly",
        f"{recovered}/{total} planted, {full}/{len(independents)} independents, {elapsed:.1f}s",
    )


def test_criterion_5_hafnian_and_fujiki_constant():
    t0 = time.time()
    rng = random.Random(55)
    exact = 0
    total = 100
    for i in range(total):
        m = rng.choice((2, 4, 6, 8))
        use_fractions = i % 2 == 0
        q = [[0] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                val = (
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    if use_fractions
                    else rng.randint(-9, 9)
                )
                q[a][b] = q[b][a] = val
        exact += matching_sum(q) == 2 ** (m // 2) * math.factorial(m // 2) * hafnian(q)
    u = hyperbolic_plane()
    constants = set()
    checked = brute_agree = 0
    for _ in range(50):
        n = rng.choice((1, 2))
        f = FujikiStructure(u, n=n, c=Fraction(3, 2), k=Fraction(2, 7))
        eta = (rng.randint(1, 9), rng.randint(1, 9))
        top = fujiki_top(f, eta)
        if top == 0:
            continue
        checked += 1
        pol = fujiki_polarized(f, [eta] * (2 * n))
        brute_agree += pol == fujiki_polarized_bruteforce(f, [eta] * (2 * n))
        constants.add((n, Fraction(pol) / Fraction(top)))
    # exact arithmetic: the measured constant is literally identical per n
    by_n = {}
    spread_ok = True
    for n, c in constants:
        if n in by_n and by_n[n] != c:
            spread_ok = False
        by_n[n] = c
    expected = all(
        by_n[n] == Fraction(2, 7) * math.factorial(2 * n) / Fraction(3, 2) for n in by_n
    )
    elapsed = time.time() - t0
    report(
        exact == total and spread_ok and expected and brute_agree == checked,
        "criterion 5: matching-sum identity and polarized constant",
        f"{exact}/{total} identities, {brute_agree}/{checked} polarized sums equal "
        f"the permutation sum, constant spread 0 (K(2n)!/c), {elapsed:.1f}s",
    )


def test_criterion_6_amgm_rigidity():
    t0 = time.time()
    rng = np.random.default_rng(66)
    never_counter = True
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h1 = HermitianForm(a @ a.conj().T + 0.05 * np.eye(n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h2 = HermitianForm(b @ b.conj().T + 0.05 * np.eye(n))
        if amgm_rigidity_check(h1, h2) == RigidityVerdict.COUNTEREXAMPLE:
            never_counter = False
        if amgm_rigidity_check(h1, h1) != RigidityVerdict.EQUAL:
            never_counter = False
    means_ok = True
    for lam in (1.5, 2.0, 3.0, 7.5):
        h1 = HermitianForm(np.diag([lam, 1 / lam]))
        h2 = HermitianForm(np.eye(2))
        mean, det = amgm_mixed_ratios(h1, h2)
        verdict = amgm_rigidity_check(h1, h2)
        means_ok &= verdict == RigidityVerdict.PREMISE_VIOLATED
        means_ok &= abs(mean - (lam + 1 / lam) / 2) < 1e-12
        means_ok &= abs(det - 1) < 1e-12
    elapsed = time.time() - t0
    report(
        never_counter and means_ok,
        "criterion 6: AM-GM rigidity over 1000 random PD pairs",
        f"no Counterexample, planted means exact, {elapsed:.1f}s",
    )


def test_criterion_7_k3_kernel():
    t0 = time.time()
    surface = s2.reference_surface()
    rng = np.random.default_rng(7777)
    pts = [s2.sample_point(surface, rng) for _ in range(1000)]
    inv_res = rt = anti = 0.0
    bitwise_ok = True
    measure_worst = 0.0
    measure_checked = 0
    for p in pts:
        for axis in "xyz":
            try:
                q = s2.involution(surface, axis, p)
                back = s2.involution(surface, axis, q)
            except BranchPointError:
                continue
            inv_res = max(inv_res, q.residual)
            rt = max(rt, s2.point_distance(back, p))
            try:
                fp = s2.axis_partial(surface, p, axis)
                fq = s2.axis_partial(surface, q, axis)
                anti = max(anti, abs(fp + fq) / max(1.0, abs(fp)))
            except BranchPointError:
                pass
        try:
            q = s2.parabolic_map(surface, ("y", "z"), p)
            bitwise_ok &= q.x is p.x
        except BranchPointError:
            pass
        if measure_checked < 400:
            try:
                d, r = s2.fiber_derivative_ratio(
                    surface, ("y", "z"), lambda w: s2.parabolic_map(surface, ("y", "z"), w), p
                )
                measure_worst = max(measure_worst, abs(abs(d) - abs(r)) / max(1.0, abs(r)))
                measure_checked += 1
            except (BranchPointError, ContractError):
                pass
    elapsed = time.time() - t0
    ok = (
        inv_res < 1e-10
        and rt < 1e-9
        and anti < 1e-9
        and bitwise_ok
        and measure_checked >= 400
        and measure_worst < 1e-6
        and elapsed < 60
    )
    report(
        ok,
        "criterion 7: surface kernel identities over 1000 points",
        f"res {inv_res:.1e}, invol {rt:.1e}, anti {anti:.1e}, "
        f"measure {measure_worst:.1e} ({measure_checked} pts), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_fiber_orbit_density():
    t0 = time.time()
    surface = s2.reference_surface()
    n_fibers = 20
    threshold = 0.95  # calibrated on the reference surface, min_hits = 3
    # fiber i starts on [42, i] and recovers on [1, i], one process per core
    reports = s2.fiber_orbits(
        surface, ("y", "z"), [([42, i], [1, i]) for i in range(n_fibers)], 10**5, grid=16,
        workers=min(os.cpu_count() or 1, n_fibers),
    )
    coverages = [rep.coverage for rep in reports]
    passed = sum(c >= threshold for c in coverages)
    elapsed = time.time() - t0
    ok = passed >= 0.9 * n_fibers and elapsed < 300
    report(
        ok,
        "criterion 8: fiber orbit coverage at N=1e5, G=16",
        f"{passed}/{n_fibers} fibers >= {threshold} (min {min(coverages):.3f}), "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_9_ergodicity_diagnostics():
    t0 = time.time()
    surface = s2.reference_surface()
    zs = {}
    for fid in ("x_abs2", "x_re", "y_abs2"):
        rep = s2.birkhoff_ergodicity_test(
            surface, fid, word_length=10**4, trials=16, mc_samples=10**6, seed=2024
        )
        zs[fid] = rep["z_score"]
        assert "heuristic" in rep["note"]
        assert not rep["mc_unstable"]
    three_se = all(z < 3 for z in zs.values())
    contrast = s2.ergodicity_contrast(
        surface, ("y", "z"), "y_abs2", n_fibers=10, trials_per_fiber=6,
        word_length=10**4, seed=7,
    )
    ratio = contrast["variance_ratio"]
    elapsed = time.time() - t0
    report(
        three_se and ratio >= 10,
        "criterion 9: ergodicity diagnostics (heuristic)",
        f"z-scores {', '.join(f'{k}={v:.2f}' for k, v in zs.items())}; "
        f"contrast ratio {ratio:.0f}x (>= 10x), {elapsed:.0f}s",
    )
