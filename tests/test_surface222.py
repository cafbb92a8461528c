import json
import pickle
import random
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from parabolic_lab.errors import BranchPointError, ContractError, PreconditionError
from parabolic_lab import surface222 as s2

from helpers import (
    FROZEN_TEST_FUNCTIONS,
    _frozen_polish,
    fermat_like_surface,
    frozen_axis_quadratic,
    frozen_birkhoff,
    frozen_chart_cell,
    frozen_contrast,
    frozen_eval_f,
    frozen_fiber_cells,
    frozen_fiber_orbit,
    frozen_guard,
    frozen_involution,
    frozen_mc_space_average,
    frozen_orbit_trace,
    frozen_parabolic_map,
    frozen_quad,
    parabolic_inverse,
    residual_of,
)

S = s2.reference_surface()
RNG = np.random.default_rng(11)
POINTS = [s2.sample_point(S, RNG) for _ in range(200)]


def test_fermat_like_examples():
    diag = fermat_like_surface()
    p = s2.SurfacePoint((1.0 + 0j, 0j), (1.0 + 0j, 0j), (1.0 + 0j, 1.0 + 0j))
    assert abs(frozen_eval_f(diag, p)) < 1e-15
    q = s2.involution(diag, "z", p)
    assert abs(q.z[1] / q.z[0] + 1) < 1e-12  # z -> -z when B = 0
    off = s2.SurfacePoint((1.0 + 0j, 0j), (1.0 + 0j, 0j), (1.0 + 0j, 0.5 + 0j))
    assert residual_of(diag, off) > 0.1


def test_surface_validation():
    with pytest.raises(PreconditionError):
        s2.Surface222(np.zeros((3, 3)))
    c = np.zeros((3, 3, 3), dtype=complex)
    c[0, 0, 0] = 1.0
    with pytest.raises(PreconditionError):
        s2.Surface222(c)  # no quadratic term in any variable
    # the largest coefficient modulus must lie in [1e-50, 1e50]
    huge = S.coeffs.copy()
    huge[2, 2, 2] = complex(1e308, 1e308)  # a modulus past the largest float
    for c in [S.coeffs * 1e100, S.coeffs * 1e-300, huge,
              np.full((3, 3, 3), 1.1e50, dtype=complex), np.full((3, 3, 3), 0.9e-50, dtype=complex)]:
        with pytest.raises(PreconditionError, match="largest coefficient modulus"):
            s2.Surface222(c)
    for size in (1e50, 1e-50):
        s2.Surface222(np.full((3, 3, 3), size, dtype=complex))


def test_sampling_residuals():
    assert max(p.residual for p in POINTS) < 1e-12


def test_involution_is_involution():
    checked = 0
    for p in POINTS:
        for axis in "xyz":
            try:
                q = s2.involution(S, axis, p)
                back = s2.involution(S, axis, q)
            except BranchPointError:
                continue
            checked += 1
            assert q.residual < 1e-10
            assert s2.point_distance(back, p) < 1e-9
    assert checked > 500


def test_anti_symplectic_sign():
    checked = 0
    for p in POINTS:
        for axis in "xyz":
            try:
                q = s2.involution(S, axis, p)
                fp = s2.axis_partial(S, p, axis)
                fq = s2.axis_partial(S, q, axis)
            except BranchPointError:
                continue
            checked += 1
            assert abs(fp + fq) < 1e-9 * max(1.0, abs(fp))
    assert checked > 400


def _outcome(fn, *args):
    """A map's image as (coordinates, residual), or its refusal as (type, message);
    any other return value as it is."""
    try:
        q = fn(*args)
    except ContractError as exc:  # BranchPointError included
        return type(exc).__name__, str(exc)
    if isinstance(q, s2.SurfacePoint):
        return (q.x, q.y, q.z), q.residual
    return q


def _bound_swap(surface, axis, p):
    """The surface's bound swap of `axis` applied to p, as a SurfacePoint."""
    coords = [p.x, p.y, p.z]
    i, j, k = s2._SLOTS[axis]
    coords[i], res = surface._swaps[i](coords[j], coords[k], coords[i])
    return s2.SurfacePoint(*coords, res)


def _branch_ratio(surface, p):
    """min over the axes of |disc| / scale^2, the quantity the branch guard tests."""
    ratios = []
    for axis in s2.AXES:
        a, b, c = frozen_axis_quadratic(surface, p, axis)
        ratios.append(abs(b * b - 4 * a * c) / max(abs(a), abs(b), abs(c)) ** 2)
    return min(ratios)


# Thresholds are patched after the surface has built its swaps, so the kernel
# must read them at call time.  The points are the 40 of 4000 samples nearest
# the branch locus and 80 others; the last case adds leading-coefficient
# refusals and off-surface ContractErrors.
@pytest.mark.parametrize("patch, refusals", [
    ({}, set()),
    ({"BRANCH_DISC_REL": 1e-3, "LEAD_COEFF_REL": 1e-3}, {"too close to a branch point"}),
    ({"BRANCH_DISC_REL": 5e-4, "LEAD_COEFF_REL": 5e-4}, {"too close to a branch point"}),
    ({"LEAD_COEFF_REL": 0.3, "ON_SURFACE_TOL": 1e-16},
     {"leading coefficient too small; fiber degenerates", "ContractError"}),
], ids=["default", "1e-3", "5e-4", "lead-and-residual"])
@pytest.mark.parametrize("surface", [S, s2.random_surface(5), s2.random_surface(9)],
                         ids=["reference", "random5", "random9"])
def test_vieta_swap_matches_frozen_involution(surface, patch, refusals, monkeypatch):
    rng = np.random.default_rng([surface.seed, 17])
    samples = sorted((s2.sample_point(surface, rng) for _ in range(4000)),
                     key=lambda p: _branch_ratio(surface, p))
    points = samples[:40] + samples[-80:]
    s2.parabolic_map(surface, ("y", "z"), points[-1])
    for name, value in patch.items():
        monkeypatch.setattr(s2, name, value)
    wants = []
    for p in points:
        for axis in s2.AXES:
            wants.append(_outcome(frozen_involution, surface, axis, p))
            assert _outcome(s2.involution, surface, axis, p) == wants[-1]
            assert _outcome(_bound_swap, surface, axis, p) == wants[-1]
        for pair in s2.PAIRS + tuple(pr[::-1] for pr in s2.PAIRS):
            wants.append(_outcome(frozen_parabolic_map, surface, pair, p))
            assert _outcome(s2.parabolic_map, surface, pair, p) == wants[-1]
    kind_or_message = {w[0] if w[0] == "ContractError" else w[1]
                       for w in wants if isinstance(w[0], str)}
    assert kind_or_message == refusals
    # the swaps are cached on the instance; pickling must not try to carry them
    back = pickle.loads(pickle.dumps(surface))
    assert np.array_equal(back.coeffs, surface.coeffs) and back.seed == surface.seed
    assert _outcome(s2.parabolic_map, back, ("y", "z"), p) == _outcome(
        s2.parabolic_map, surface, ("y", "z"), p)


def _bits(value):
    """Floats and complexes as their IEEE bytes (NaN payloads and signed zeros
    compared too), through tuples; anything else as it is."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, complex):
        return struct.pack("<2d", value.real, value.imag)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _quad_bits(abc):
    """(A, B, C) through :func:`_bits`, each with its type and an array as its entries."""
    return tuple((type(x), _bits(tuple(x.tolist()) if isinstance(x, np.ndarray) else x))
                 for x in abc)


@pytest.mark.parametrize("surface", [S, s2.random_surface(5), s2.random_surface(9)],
                         ids=["reference", "random5", "random9"])
def test_bound_quadratic_matches_frozen_axis_quadratic(surface):
    # scalar probes, then probes with one or both of the two other coordinates an array
    rng = np.random.default_rng([surface.seed, 25])
    points = [s2.sample_point(surface, rng) for _ in range(60)]
    pairs = [s2._fs_pair(rng) for _ in range(61)] + [(1 + 0j, 0j), (0j, 1 + 0j), (1 + 0j, -1j)]
    arrays = tuple(np.array(part) for part in zip(*pairs))
    checked = 0
    for p in points:
        for axis in s2.AXES:
            i, j, k = s2._SLOTS[axis]
            for slots in ((), (j,), (k,), (j, k)):
                coords = list(p.astuple())
                for slot in slots:
                    coords[slot] = arrays
                probe = s2.SurfacePoint(*coords)
                want = _quad_bits(frozen_axis_quadratic(surface, probe, axis))
                assert _quad_bits(s2.axis_quadratic(surface, probe, axis)) == want
                assert _quad_bits(surface._quads[i](coords[j], coords[k])) == want
                checked += 1
    assert checked == 60 * 3 * 4


def _frozen_polish_outcome(a, b, c, c0, c1):
    pair = _frozen_polish(a, b, c, (c0, c1))
    return pair, abs(frozen_quad(a, b, c, pair))


_NAN = complex(float("nan"), 0.0)


# Ties in the max()s, an exact df == 0 start, NaN entries, infinities and an
# all-zero quadratic: the inputs where a max() spelled as comparisons, or a
# Newton break on df == 0 instead of abs(df) == 0, could pick another float.
@pytest.mark.parametrize("abc", [
    (1 + 0j, 1j, -1 + 0j), (1j, -1 + 0j, 1 + 0j), (0.6 + 0.8j, 1 + 0j, -0.8 + 0.6j),
    (1 + 0j, 0j, -1 + 0j), (2 + 0j, 0j, 0j), (0j, 0j, 1 + 0j), (0j, 0j, 0j),
    (_NAN, 1 + 0j, 1 + 0j), (1 + 0j, _NAN, 1 + 0j), (1 + 0j, 1 + 0j, _NAN),
    (complex(float("inf"), 0.0), 1 + 0j, 1 + 0j), (1e-20 + 0j, 1 + 0j, 1 + 0j),
], ids=["tie-1-i-1", "tie-i-1-1", "tie-unit", "df0", "double-root", "lead0", "zero",
        "nan-a", "nan-b", "nan-c", "inf-a", "small-lead"])
def test_guard_and_polish_match_frozen_on_edge_cases(abc):
    assert _bits(_outcome(s2._guard, *abc)) == _bits(_outcome(frozen_guard, *abc))
    for pair in [(1 + 0j, 0j), (0j, 1 + 0j), (1 + 0j, 1j), (1j, -1 + 0j),
                 (0.6 + 0.8j, -0.8 + 0.6j), (1 + 0j, -1 + 0j), (_NAN, 1 + 0j),
                 (1 + 0j, _NAN)]:
        want = _outcome(_frozen_polish_outcome, *abc, *pair)
        assert _bits(_outcome(s2._polish, *abc, *pair)) == _bits(want)


def test_eval_test_function_matches_three_coordinate_form():
    assert set(s2.TEST_FUNCTIONS) == set(FROZEN_TEST_FUNCTIONS)
    for fid, fn in FROZEN_TEST_FUNCTIONS.items():
        for p in POINTS:
            w = (s2.sphere_coord(p.x), s2.sphere_coord(p.y), s2.sphere_coord(p.z))
            assert s2.eval_test_function(fid, p) == float(fn(*w))


def test_parabolic_map_fixes_base_bitwise():
    for p in POINTS[:60]:
        try:
            q = s2.parabolic_map(S, ("y", "z"), p)
        except BranchPointError:
            continue
        assert q.x is p.x
        r = parabolic_inverse(S, ("y", "z"), q)
        assert s2.point_distance(r, p) < 1e-9


def test_translation_check_parabolic_passes():
    passed = attempted = 0
    for p in POINTS[:60]:
        try:
            ok = s2.translation_check(S, ("y", "z"), p.x, p)
        except (BranchPointError, ContractError):
            continue
        attempted += 1
        passed += ok
    assert attempted >= 40 and passed == attempted


def test_translation_check_rejects_single_involution():
    p = POINTS[0]
    d, r = s2.fiber_derivative_ratio(
        S, ("y", "z"), lambda q: s2.involution(S, "z", q), p
    )
    assert abs(d - 1) < 1e-4 and abs(r + 1) < 1e-9  # density ratio -1


def test_translation_check_wrong_fiber_rejected():
    p = POINTS[0]
    with pytest.raises(PreconditionError):
        s2.translation_check(S, ("y", "z"), POINTS[1].x, p)


def test_measure_density_pullback():
    checked = 0
    for p in POINTS[:60]:
        try:
            d, r = s2.fiber_derivative_ratio(
                S, ("y", "z"), lambda q: s2.parabolic_map(S, ("y", "z"), q), p
            )
        except (BranchPointError, ContractError):
            continue
        checked += 1
        assert abs(abs(d) - abs(r)) <= 1e-6 * max(1.0, abs(r))
    assert checked >= 40


def test_free_words_move_points():
    rng = np.random.default_rng(5)
    moved = total = 0
    for p in POINTS[:40]:
        length = int(rng.integers(1, 9))
        letters = []
        last = None
        for _ in range(length):
            ax = "xyz"[rng.integers(3)]
            while ax == last:
                ax = "xyz"[rng.integers(3)]
            letters.append(ax)
            last = ax
        try:
            q = p
            for ax in letters:
                q = s2.involution(S, ax, q)
        except BranchPointError:
            continue
        total += 1
        moved += s2.point_distance(q, p) > 1e-8
    assert total >= 25 and moved == total


def test_fiber_orbit_small():
    rng = np.random.default_rng(3)
    base = s2._fs_pair(rng)
    start = s2.sample_fiber_point(S, ("y", "z"), base, rng)
    rep0 = s2.fiber_orbit(S, ("y", "z"), base, start, 0, grid=8)
    assert rep0.cells_visited <= 1 and rep0.length == 0
    rep1 = s2.fiber_orbit(S, ("y", "z"), base, start, 300, grid=8)
    rep2 = s2.fiber_orbit(S, ("y", "z"), base, start, 1500, grid=8)
    assert 0 <= rep1.coverage <= rep2.coverage <= 1
    assert rep2.cells_fiber == rep1.cells_fiber


def test_chart_cells():
    g = 16
    zero, infinity = (1.0 + 0j, 0j), (0j, 1.0 + 0j)
    cell = s2.pair_cell(s2.SurfacePoint(zero, infinity, zero), ("x", "y"), g)
    assert cell[:3] == (0, g // 2, g // 2) and cell[3] == 1
    assert cell == frozen_chart_cell(zero, g) + frozen_chart_cell(infinity, g)
    # sphere coordinate is chart-symmetric in modulus
    t = 0.3 + 0.4j
    w1 = s2.sphere_coord((1.0 + 0j, t))
    w2 = s2.sphere_coord((t, 1.0 + 0j))
    assert abs(abs(w1) - abs(w2)) < 1e-15


def test_chart_cell_matches_frozen_scalar():
    rng = np.random.default_rng(5)
    for grid in (1, 4, 16, 33):
        for _ in range(300):
            g = rng.normal(size=4) * np.exp(rng.uniform(-6, 6, size=4))
            pair = (complex(g[0], g[1]), complex(g[2], g[3]))
            pt = s2.SurfacePoint(pair, pair[::-1], pair)
            assert s2.pair_cell(pt, ("x", "y"), grid) == (
                frozen_chart_cell(pair, grid) + frozen_chart_cell(pair[::-1], grid))


@pytest.mark.parametrize("surface", [S, s2.random_surface(5), s2.random_surface(9)],
                         ids=["reference", "random5", "random9"])
def test_fiber_cells_match_frozen_scalar(surface):
    # 12 bases per surface, 4 on each fiber pair, at G = 4, 8, 16 and 8
    for pair in s2.PAIRS:
        for i, grid in enumerate((4, 8, 16, 8)):
            base = s2._fs_pair(np.random.default_rng([surface.seed, i]))
            cells = s2.fiber_cells(surface, pair, base, grid)
            assert cells and cells == frozen_fiber_cells(surface, pair, base, grid)


def test_fiber_orbit_matches_frozen_binning(monkeypatch):
    # 2001 orbit points binned in blocks of 667 (three full, the last flush
    # empty), of 600 (a partial last block) and of the default size (one block)
    for i, (pair, block) in enumerate(zip(s2.PAIRS, (667, 600, s2.BIN_BLOCK))):
        monkeypatch.setattr(s2, "BIN_BLOCK", block)
        rng = np.random.default_rng([8, i])
        base = s2._fs_pair(rng)
        start = s2.sample_fiber_point(S, pair, base, rng)
        rep = s2.fiber_orbit(S, pair, base, start, 2000, grid=8,
                             rng=np.random.default_rng([9, i]))
        frozen = frozen_fiber_orbit(S, pair, base, start, 2000, 8,
                                    np.random.default_rng([9, i]))
        assert {k: getattr(rep, k) for k in frozen} == frozen


ORBIT_FIELDS = ("cells_fiber", "cells_visited", "coverage", "interruptions",
                "min_visits", "mean_visits")


def _orbit_start(pair_index, case):
    """(pair, base, start) of one walk case on the reference surface."""
    pair = s2.PAIRS[pair_index]
    rng = np.random.default_rng([8, pair_index, case])
    base = s2._fs_pair(rng)
    return pair, base, s2.sample_fiber_point(S, pair, base, rng)


def _orbit_runs(pair_index, case, length):
    """The library's fiber-orbit fields with its recovery counters, and the
    frozen fields, as two thunks."""
    pair, base, start = _orbit_start(pair_index, case)

    def frozen():
        return frozen_fiber_orbit(S, pair, base, start, length, 8,
                                  np.random.default_rng([9, pair_index]))

    def library():
        rep = s2.fiber_orbit(S, pair, base, start, length, grid=8,
                             rng=np.random.default_rng([9, pair_index]))
        return {k: getattr(rep, k) for k in ORBIT_FIELDS + ("nudges", "resamples")}

    return library, frozen


def _count_calls(monkeypatch, name):
    """Wrap the library function `name` in a call counter and return the counter."""
    calls = [0]
    fn = getattr(s2, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(s2, name, counted)
    return calls


# (pair index, case, length, BRANCH_DISC_REL, interruptions, resamples): a
# clean orbit, one nudge, one resample, and a nudge followed by a resample
WALK_CASES = [
    (0, 0, 2000, 1e-3, 0, 0),
    (1, 0, 2000, 1e-3, 1, 0),
    (2, 2, 2000, 1e-3, 1, 1),
    (0, 5, 6000, 5e-4, 2, 1),
]


@pytest.mark.parametrize("pair_index, case, length, rel, hits, resamples", WALK_CASES)
def test_fiber_orbit_matches_frozen_walk(pair_index, case, length, rel, hits, resamples,
                                         monkeypatch):
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", rel)
    library, frozen = _orbit_runs(pair_index, case, length)
    calls = _count_calls(monkeypatch, "sample_fiber_point")
    got = library()
    assert {k: got[k] for k in ORBIT_FIELDS} == frozen()
    assert got["interruptions"] == hits and calls[0] == resamples
    # every interruption is recovered by one nudge or one resample, counted apart
    assert got["resamples"] == resamples and got["nudges"] == hits - resamples


@pytest.mark.parametrize("pair_index, case, length, rel, hits, resamples", WALK_CASES)
def test_orbit_trace_matches_frozen_point_by_point(pair_index, case, length, rel, hits,
                                                   resamples, monkeypatch):
    # the yielded points, rebuilt from the walk's tuples, are the frozen walk's bit for bit
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", rel)
    pair, base, start = _orbit_start(pair_index, case)
    runs = []
    for trace in (s2.orbit_trace, frozen_orbit_trace):
        stats = {}
        points = [(step, repr(p.x), repr(p.y), repr(p.z), repr(p.residual))
                  for step, p in trace(S, pair, base, start, length,
                                       np.random.default_rng([9, pair_index]), stats)]
        runs.append((points, stats))
    (got, stats), (want, frozen_stats) = runs
    assert [step for step, *_ in got] == list(range(length + 1))
    assert got == want
    assert frozen_stats == {"interruptions": hits}
    assert stats == {"interruptions": hits, "nudges": hits - resamples, "resamples": resamples}


# (pair, case, BRANCH_DISC_REL, interruptions): one pair map per ordered pair, so the
# three pairs no other test walks, the second of them through one resample
@pytest.mark.parametrize("pair, case, rel, hits", [
    (("z", "y"), 0, s2.BRANCH_DISC_REL, 0),
    (("z", "x"), 1, 1e-3, 1),
    (("y", "x"), 2, s2.BRANCH_DISC_REL, 0),
])
def test_fiber_orbit_on_reversed_pairs_matches_frozen(pair, case, rel, hits, monkeypatch):
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", rel)
    k = s2.PAIRS.index(pair[::-1])
    rng = np.random.default_rng([10, k, case])
    base = s2._fs_pair(rng)
    start = s2.sample_fiber_point(S, pair, base, rng)
    rep = s2.fiber_orbit(S, pair, base, start, 2000, grid=8, rng=np.random.default_rng([11, k]))
    frozen = frozen_fiber_orbit(S, pair, base, start, 2000, 8, np.random.default_rng([11, k]))
    assert {f: getattr(rep, f) for f in frozen} == frozen
    assert rep.interruptions == hits


@pytest.mark.parametrize("pair", [("x", "x"), ("x",), ("x", "y", "z"), ("x", "w")])
def test_every_pair_taker_refuses_a_bad_pair(pair):
    # a pair is two distinct axes; anything else is a precondition, never a bare
    # unpacking error or a map that swaps one axis twice
    base, p = (1.0 + 0j, 0.5 + 0j), POINTS[0]
    calls = [
        lambda: s2.parabolic_map(S, pair, p),
        lambda: s2.sample_fiber_point(S, pair, base, np.random.default_rng(0)),
        lambda: s2.fiber_cells(S, pair, base, grid=4),
        lambda: next(s2.orbit_trace(S, pair, base, p, 10)),
        lambda: s2.fiber_orbit(S, pair, base, p, 10, grid=4),
        lambda: s2.translation_check(S, pair, base, p),
        lambda: s2.ergodicity_contrast(S, pair, word_length=10),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="two distinct axes"):
            call()


@pytest.mark.parametrize("rel, hits", [(s2.BRANCH_DISC_REL, 0), (5e-4, 2), (1e-3, 3)])
def test_birkhoff_matches_frozen_walk(rel, hits, monkeypatch):
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", rel)
    seen = 0
    for seed in range(4):
        kwargs = dict(word_length=400, trials=3, mc_samples=2000, seed=seed)
        rep = s2.birkhoff_ergodicity_test(S, "x_re", **kwargs)
        assert rep == frozen_birkhoff(S, "x_re", **kwargs)
        seen += rep["branch_interruptions"]
    assert seen == hits


@pytest.mark.parametrize("rel", [5e-4, 1e-3])
def test_contrast_matches_frozen_walk(rel, monkeypatch):
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", rel)
    calls = _count_calls(monkeypatch, "sample_fiber_point")
    hits = 0
    for seed in (3, 4, 5):
        kwargs = dict(n_fibers=3, trials_per_fiber=2, word_length=200, seed=seed)
        rep = s2.ergodicity_contrast(S, **kwargs)
        assert rep == frozen_contrast(S, **kwargs)
        hits += rep["branch_interruptions"]
    assert calls[0] == 3 * 6 + 2  # 18 starts and two resampled trajectory points
    assert hits == 2


def test_walk_budget_overrun_raises_on_both_sides(monkeypatch):
    # budgets: 0.1% of 2000 orbit steps, 1% of 100 and of 150 trajectory steps
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 5e-4)
    library, frozen = _orbit_runs(0, 1, 2000)
    with pytest.raises(ContractError, match="3 branch interruptions exceed the budget of 2"):
        library()
    with pytest.raises(ContractError):
        frozen()
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 1e-2)
    kwargs = dict(word_length=100, trials=3, mc_samples=2000, seed=1)
    with pytest.raises(ContractError, match="2 branch interruptions exceed the budget of 1"):
        s2.birkhoff_ergodicity_test(S, "x_re", **kwargs)
    with pytest.raises(ContractError):
        frozen_birkhoff(S, "x_re", **kwargs)
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 3e-3)
    kwargs = dict(n_fibers=3, trials_per_fiber=2, word_length=150, seed=2)
    with pytest.raises(ContractError, match="2 branch interruptions exceed the budget of 1"):
        s2.ergodicity_contrast(S, **kwargs)
    with pytest.raises(ContractError):
        frozen_contrast(S, **kwargs)


@pytest.mark.parametrize("surface", [S, s2.random_surface(5)], ids=["reference", "random5"])
@pytest.mark.parametrize("fid", ["one", "x_re", "z_abs2"])
def test_mc_space_average_matches_frozen(surface, fid):
    # one draw serves every test function; each average equals the frozen per-fid one
    got = s2._mc_space_averages(surface, tuple(s2.TEST_FUNCTIONS), 20000,
                                np.random.default_rng(3))[fid]
    assert got == frozen_mc_space_average(surface, fid, 20000, np.random.default_rng(3))


_BLOCK_EDGES = [1, s2.MC_BLOCK - 1, s2.MC_BLOCK, s2.MC_BLOCK + 1, 3 * s2.MC_BLOCK + 5]


@pytest.mark.parametrize("surface", [S, s2.random_surface(5)], ids=["reference", "random5"])
@pytest.mark.parametrize("samples", _BLOCK_EDGES)
def test_mc_space_average_matches_frozen_across_block_boundaries(surface, samples):
    # the draw runs MC_BLOCK columns at a time; the reductions see the whole-draw arrays
    got = s2._mc_space_averages(surface, tuple(s2.TEST_FUNCTIONS), samples,
                                np.random.default_rng([samples, 0x5C]))
    for fid in s2.TEST_FUNCTIONS:
        assert got[fid] == frozen_mc_space_average(surface, fid, samples,
                                                   np.random.default_rng([samples, 0x5C]))


def test_mc_space_average_peak_memory_is_bounded():
    # the whole-draw version held about 450 bytes of numpy arrays per sample at its peak
    samples = 4 * 10**5
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        s2._mc_space_averages(S, tuple(s2.TEST_FUNCTIONS), samples, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 250 * samples, f"{peak / samples:.0f} bytes per sample"


_SMALL = dict(word_length=300, trials=3, mc_samples=3000)


def test_birkhoff_shares_one_run_per_seed(monkeypatch):
    surfaces = [s2.reference_surface(), s2.random_surface(5)]
    calls = [(k, fid, seed) for k in range(2) for fid in s2.TEST_FUNCTIONS for seed in (0, 7, 2024)]
    random.Random(12).shuffle(calls)
    samples = _count_calls(monkeypatch, "sample_point")
    hits = {}
    for k, fid, seed in calls:
        rep = s2.birkhoff_ergodicity_test(surfaces[k], fid, seed=seed, **_SMALL)
        assert rep == frozen_birkhoff(surfaces[k], fid, seed=seed, **_SMALL)
        hits[k, seed] = rep["branch_interruptions"]
    # one walk per surface and seed: its starts and resamples, not one walk per fid
    assert samples[0] == sum(_SMALL["trials"] + h for h in hits.values())
    assert [len(surface._birkhoff_memo) for surface in surfaces] == [3, 3]


def test_birkhoff_memo_is_keyed_on_the_thresholds(monkeypatch):
    surface = s2.reference_surface()
    kwargs = dict(word_length=400, trials=3, mc_samples=2000)
    default = [s2.birkhoff_ergodicity_test(surface, "x_re", seed=seed, **kwargs) for seed in range(4)]
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 1e-3)
    patched = [s2.birkhoff_ergodicity_test(surface, "x_re", seed=seed, **kwargs) for seed in range(4)]
    assert patched == [frozen_birkhoff(surface, "x_re", seed=seed, **kwargs) for seed in range(4)]
    assert sum(rep["branch_interruptions"] for rep in patched) == 3
    assert patched != default


def test_birkhoff_memo_keeps_no_failed_run(monkeypatch):
    surface = s2.reference_surface()
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 1e-2)
    kwargs = dict(word_length=100, trials=3, mc_samples=2000, seed=1)
    for _ in range(2):
        with pytest.raises(ContractError, match="2 branch interruptions exceed the budget of 1"):
            s2.birkhoff_ergodicity_test(surface, "x_re", **kwargs)
    assert surface._birkhoff_memo == {}


def test_birkhoff_reports_are_fresh():
    surface = s2.reference_surface()
    first = s2.birkhoff_ergodicity_test(surface, "y_abs2", seed=3, **_SMALL)
    first["trial_means"][0] = 99.0
    first["trial_means"].append(1.0)
    first["z_score"] = -1.0
    again = s2.birkhoff_ergodicity_test(surface, "y_abs2", seed=3, **_SMALL)
    assert again == frozen_birkhoff(surface, "y_abs2", seed=3, **_SMALL)


def test_birkhoff_memo_is_bounded_and_not_pickled(monkeypatch):
    surface = s2.random_surface(5)
    tiny = dict(word_length=10, trials=2, mc_samples=100)
    seeds = range(s2.BIRKHOFF_MEMO + 1)
    reports = [s2.birkhoff_ergodicity_test(surface, "x_abs2", seed=seed, **tiny) for seed in seeds]
    assert len(surface._birkhoff_memo) == s2.BIRKHOFF_MEMO
    clone = pickle.loads(pickle.dumps(surface))
    assert "_birkhoff_memo" not in vars(clone)
    assert [s2.birkhoff_ergodicity_test(clone, "x_abs2", seed=seed, **tiny) for seed in seeds] == reports
    samples = _count_calls(monkeypatch, "sample_point")
    s2.birkhoff_ergodicity_test(surface, "x_re", seed=seeds[-1], **tiny)
    assert samples[0] == 0  # the newest run is kept
    s2.birkhoff_ergodicity_test(surface, "x_re", seed=0, **tiny)
    assert samples[0] >= tiny["trials"]  # the oldest was dropped and walks again


def test_weightless_mc_draw_is_a_contract_error(monkeypatch):
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 1e6)  # the guard refuses every draw
    with pytest.raises(ContractError, match="no weight among 100 Monte Carlo draws"):
        s2._mc_space_averages(S, ("one",), 100, np.random.default_rng(0))
    samples = s2.MC_BLOCK + 3  # refused in every block of the draw
    with pytest.raises(ContractError, match=f"no weight among {samples} Monte Carlo draws"):
        s2._mc_space_averages(S, ("one",), samples, np.random.default_rng(0))


def test_nan_effective_sample_size_is_unstable(monkeypatch):
    # a NaN effective sample size must raise the flag, not read as a stable draw
    monkeypatch.setattr(s2, "_mc_space_averages", lambda surface, fids, samples, rng: {
        fid: (0.5, 0.1, float("nan")) for fid in fids})
    rep = s2.birkhoff_ergodicity_test(s2.random_surface(3), "x_re", word_length=20, trials=2,
                                      mc_samples=10)
    assert rep["mc_unstable"] is True


def test_birkhoff_constant_function_exact():
    rep = s2.birkhoff_ergodicity_test(S, "one", word_length=50, trials=2, mc_samples=5000, seed=1)
    assert rep["time_average"] == 1.0 and rep["space_average"] == 1.0
    assert rep["z_score"] == 0.0
    assert "heuristic" in rep["note"]


def test_birkhoff_unknown_function():
    with pytest.raises(PreconditionError):
        s2.birkhoff_ergodicity_test(S, "nope", word_length=10, trials=2, mc_samples=100)


def test_nonpositive_lengths_and_grids_are_preconditions():
    with pytest.raises(PreconditionError, match="word_length"):
        s2.birkhoff_ergodicity_test(S, "one", word_length=0, trials=2, mc_samples=100)
    with pytest.raises(PreconditionError, match="word_length"):
        s2.ergodicity_contrast(S, word_length=0)
    for mc in (0, -5):
        with pytest.raises(PreconditionError, match="mc_samples"):
            s2.birkhoff_ergodicity_test(S, "one", word_length=10, trials=2, mc_samples=mc)
    for grid in (0, -3):
        with pytest.raises(PreconditionError, match="grid"):
            s2.fiber_cells(S, ("y", "z"), (1.0 + 0j, 0.5 + 0j), grid=grid)


@pytest.mark.parametrize("counts", [dict(n_fibers=1), dict(trials_per_fiber=1)],
                         ids=["one-fiber", "one-trial"])
def test_contrast_needs_two_fibers_and_two_trials(counts, monkeypatch):
    # the variance of one mean is NaN: refused before any walk, with no numpy warning
    def walked(*args, **kwargs):
        raise AssertionError("the contrast walked before refusing")

    monkeypatch.setattr(s2, "sample_fiber_point", walked)
    monkeypatch.setattr(s2, "_trajectory_means", walked)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="must be >= 2"):
            s2.ergodicity_contrast(S, word_length=20, **counts)


def test_json_roundtrip():
    text = json.dumps(S.to_json_dict(), sort_keys=True)
    back = s2.Surface222.from_json_dict(json.loads(text))
    assert np.array_equal(back.coeffs, S.coeffs)
    assert back.seed == S.seed
    with pytest.raises(PreconditionError):
        s2.Surface222.from_json_dict({"coeffs": [[0.0, 0.0]] * 5})
