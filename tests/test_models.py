import collections
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from twisteta.clifford import FluxForm, FormComponent, _clifford_terms, build_gamma_rep
from twisteta.models import (
    Circle,
    CircleHolonomy,
    Lens,
    LensCharacter,
    Progression,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusFlux,
    TorusHolonomy,
    TrivialBundle,
    ZERO_TOL,
    _assemble_blocks,
    _merge,
    _poly_at,
    build_torus_operator,
    enumerate_spectrum,
    lens_weight_count,
    progression_spectrum,
    torus_multiplication_operator,
    torus_twisted_derivative,
)


def test_circle_spectrum_quarter_holonomy():
    model = SpectralModel(Circle(1.0), CircleHolonomy(0.25))
    items = enumerate_spectrum(model, 2)
    assert items.tolist() == [[-1.75, 1], [-0.75, 1], [0.25, 1], [1.25, 1], [2.25, 1]]


def test_sphere_spectrum_first_shells():
    items = enumerate_spectrum(SpectralModel(Sphere3(1.0)), 1)
    assert items.tolist() == [[-2.5, 6], [-1.5, 2], [1.5, 2], [2.5, 6]]


def test_sphere_friedrich_equality():
    # min lambda^2 equals n R / (4 (n-1)) = 9/4 on the round unit sphere
    items = enumerate_spectrum(SpectralModel(Sphere3(1.0)), 5)
    min_sq = min(v * v for v, _ in items)
    r = Sphere3(1.0).scalar_curvature
    assert min_sq == pytest.approx(3 * r / (4 * 2), abs=1e-14)


def test_flux_shift_covariance():
    base = SpectralModel(Sphere3(1.0))
    shifted = base.with_flux(0.1)
    s0 = enumerate_spectrum(base, 6)
    s1 = enumerate_spectrum(shifted, 6)
    assert s0.shape == s1.shape
    assert np.max(np.abs(s1[:, 0] - (s0[:, 0] + 0.1))) <= 1e-15
    assert np.array_equal(s1[:, 1], s0[:, 1])


def _reference_levels(model, cutoff):
    """Per-mode loop form of the levels: the reference for the array form."""
    geo, t, rank = model.geometry, model.flux_shift, model.rank
    if isinstance(geo, Circle):
        a = model.bundle.a if isinstance(model.bundle, CircleHolonomy) else 0.0
        return [((n + a) / geo.radius + t, rank) for n in range(-cutoff, cutoff + 1)]
    if isinstance(geo, Sphere3):
        return [(s * (1.5 + k) / geo.radius + t, rank * (k + 1) * (k + 2))
                for k in range(cutoff + 1) for s in (1, -1)]
    if isinstance(geo, Torus3):
        theta = model.bundle.theta if isinstance(model.bundle, TorusHolonomy) else (0.0,) * 3
        lmax, n = max(geo.lengths), cutoff + 1
        items = []
        for v in itertools.product(range(-n, n + 1), repeat=3):
            ys = [(v[j] + geo.spin[j] + theta[j]) * (lmax / geo.lengths[j]) for j in range(3)]
            scaled = math.sqrt(ys[0] * ys[0] + ys[1] * ys[1] + ys[2] * ys[2])
            if scaled <= cutoff + 0.5:
                x = 2.0 * np.pi * (scaled / lmax)
                items += [(t, 2 * rank)] if x == 0.0 else [(x + t, rank), (-x + t, rank)]
        return items
    if isinstance(geo, Lens):
        k, items = model.bundle.twist, []
        for m in range(cutoff + 1):
            mp = rank * (m + 2) * _brute_weight_count(m, k, geo.p)
            mm = rank * (m + 1) * _brute_weight_count(m + 1, k, geo.p)
            items += [((1.5 + m) / geo.radius + t, mp)] if mp else []
            items += [(-(1.5 + m) / geo.radius + t, mm)] if mm else []
        return items
    raise TypeError(type(geo).__name__)


def _brute_weight_count(m, k, p):
    """Weights in ``{m, m-2, ..., -m}`` congruent to k mod p, one by one."""
    return sum(1 for i in range(m + 1) if (m - 2 * i - k) % p == 0)


def _dict_merge(levels):
    merged: dict[float, int] = {}
    for v, m in levels:
        merged[v] = merged.get(v, 0) + m
    return sorted(merged.items())


# distinct |w| of this torus lie within an ulp of each other and collide
# after the shift by +t (checked in test_torus_shift_collision_case)
_TORUS_COLLIDING = SpectralModel(Torus3((1.0, 1.0, 1.3)), TorusHolonomy((0.25, 0.25, 0.0)),
                                 flux_shift=2.5)
_LENSES = [(SpectralModel(Lens(p, 0.9), LensCharacter(p, k), flux_shift=0.15 * k - 0.4), 25)
           for p in range(2, 13) for k in range(p)]


@pytest.mark.parametrize("model,cutoff", [
    (SpectralModel(Torus3(), flux_shift=0.3), 12),
    (SpectralModel(Torus3((1.0, 1.3, 0.7), (0.0, 0.5, 0.5)),
                   TorusHolonomy((0.2, 0.0, 0.4)), flux_shift=-0.1), 8),
    (SpectralModel(Torus3(spin=(0.0, 0.0, 0.0))), 6),
    (_TORUS_COLLIDING, 8),
    (SpectralModel(Circle(0.8), CircleHolonomy(0.35), flux_shift=0.2), 50),
    (SpectralModel(Sphere3(1.3), TrivialBundle(2), flux_shift=-0.7), 30),
    (SpectralModel(Lens(5, 1.1), LensCharacter(5, 2), flux_shift=0.4), 30),
    (SpectralModel(Lens(4), TrivialBundle(2), flux_shift=0.2), 30),
    *_LENSES,
], ids=["torus-cubic", "torus-noncubic", "torus-zero-mode", "torus-shift-collision",
        "circle", "sphere", "lens", "lens-trivial-rank2",
        *(f"lens-{m.geometry.p}-{m.bundle.k}" for m, _ in _LENSES)])
def test_array_merge_matches_dict_merge(model, cutoff):
    # the geometry states the rank-1 spectrum without flux
    bare = SpectralModel(model.geometry, model.bundle if model.rank == 1 else TrivialBundle(1))
    values, mults = _merge(*model.geometry.levels(model.bundle.twist, cutoff))
    assert list(zip(values.tolist(), mults.tolist())) == _dict_merge(_reference_levels(bare, cutoff))
    reference = _dict_merge(_reference_levels(model, cutoff))
    items = enumerate_spectrum(model, cutoff)
    assert items.dtype == np.float64
    assert np.array_equal(items, np.array(reference, dtype=float))


def _full_box_levels(geometry, theta, cutoff):
    """The torus levels summed over every mode of the box, one float per
    mode: the reference for the per-axis merge of ``Torus3.levels``."""
    lmax = max(geometry.lengths)
    _, x = geometry.lattice(theta, cutoff + 1)
    y2 = (x * np.array([[lmax / l] for l in geometry.lengths])) ** 2
    scaled_w = np.sqrt((y2[0, :, None, None] + y2[1, None, :, None]
                        + y2[2, None, None, :]).ravel())
    scaled_w, count = np.unique(scaled_w[scaled_w <= cutoff + 0.5], return_counts=True)
    x = 2.0 * np.pi * (scaled_w / lmax)
    return np.concatenate([x, -x]), np.concatenate([count, count])


@pytest.mark.parametrize("geometry,theta,cutoff", [
    (Torus3((1.1247,) * 3), (0.0, 0.0, 0.0), 40),
    (Torus3(spin=(0.0, 0.0, 0.0)), (0.0, 0.0, 0.0), 20),
    (Torus3((1.0, 1.3, 0.7)), (0.3, 0.1, 0.0), 20),
], ids=["cubic", "zero-spin", "noncubic-holonomy"])
def test_torus_levels_equal_the_full_box_bit_for_bit(geometry, theta, cutoff):
    values, counts = geometry.levels(theta, cutoff)
    ref_values, ref_counts = _full_box_levels(geometry, theta, cutoff)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(counts, ref_counts) and counts.dtype == ref_counts.dtype


@pytest.mark.parametrize("model", [
    SpectralModel(Circle(0.8), CircleHolonomy(0.35), flux_shift=0.2),
    SpectralModel(Sphere3(1.3), TrivialBundle(2), flux_shift=-0.7),
    _TORUS_COLLIDING,
    SpectralModel(Lens(5, 1.1), LensCharacter(5, 2), flux_shift=0.4),
], ids=["circle", "sphere", "torus", "lens"])
def test_enumerate_spectrum_is_a_value_multiplicity_array(model):
    spec = enumerate_spectrum(model, 8)
    assert spec.dtype == np.float64 and spec.ndim == 2 and spec.shape[1] == 2
    values, mults = spec.T
    assert np.all(np.diff(values) > 0)
    assert np.all(mults >= 1) and np.array_equal(mults, np.round(mults))
    # one row per distinct eigenvalue: the count the benchmark tracer records
    values = model.geometry.levels(model.bundle.twist, 8)[0] + model.flux_shift
    assert len(spec) == np.unique(values).size


@pytest.mark.parametrize("model", [
    SpectralModel(Sphere3(1.0)),
    SpectralModel(Sphere3(2.5), TrivialBundle(3)),
    SpectralModel(Torus3()),
    SpectralModel(Torus3((1.0, 1.3, 0.7), (0.0, 0.5, 0.5))),
])
def test_symmetric_spectra(model):
    items = enumerate_spectrum(model, 6)
    table = {v: m for v, m in items}
    for v, m in items:
        assert table.get(-v) == m


def test_rank_scales_multiplicities():
    one = enumerate_spectrum(SpectralModel(Sphere3(1.0)), 3)
    three = enumerate_spectrum(SpectralModel(Sphere3(1.0), TrivialBundle(3)), 3)
    assert np.array_equal(three[:, 0], one[:, 0])
    assert np.array_equal(three[:, 1], 3 * one[:, 1])


@pytest.mark.parametrize("model,dim", [
    (SpectralModel(Circle(1.0), CircleHolonomy(0.25)), 1),
    (SpectralModel(Sphere3(1.0)), 3),
    (SpectralModel(Torus3()), 3),
    (SpectralModel(Lens(3), LensCharacter(3, 1)), 3),
])
def test_weyl_growth_exponent(model, dim):
    cut_lo, cut_hi = (200, 400) if dim != 3 else (20, 40)
    if isinstance(model.geometry, (Sphere3, Lens)):
        cut_lo, cut_hi = 100, 200
    n_lo = enumerate_spectrum(model, cut_lo)[:, 1].sum()
    n_hi = enumerate_spectrum(model, cut_hi)[:, 1].sum()
    slope = np.log2(n_hi / n_lo)
    assert abs(slope - dim) <= 0.1 * dim


def test_bundle_pairing_validation():
    with pytest.raises(ValueError):
        SpectralModel(Sphere3(1.0), CircleHolonomy(0.25))
    with pytest.raises(ValueError):
        SpectralModel(Circle(1.0), LensCharacter(3, 1))
    with pytest.raises(ValueError):
        SpectralModel(Lens(3), LensCharacter(5, 1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_inputs_rejected(bad):
    for make in (Circle, Sphere3, lambda r: Lens(3, r)):
        with pytest.raises(ValueError, match="radius must be finite"):
            make(bad)
    with pytest.raises(ValueError, match="edge lengths must be finite"):
        Torus3((1.0, bad, 1.0))
    with pytest.raises(ValueError, match="flux must be finite"):
        SpectralModel(Sphere3(1.0), flux_shift=bad)
    with pytest.raises(ValueError, match="flux must be finite"):
        SpectralModel(Sphere3(1.0)).with_flux(bad)


def test_kernel_dimension_examples():
    # |lambda| <= ZERO_TOL is the one kernel rule, in both spectrum forms
    for model, expected in [
        (SpectralModel(Circle(1.0), CircleHolonomy(0.25)), 0),
        (SpectralModel(Circle(1.0)), 1),
        (SpectralModel(Sphere3(1.0), flux_shift=1.5), 2),
        (SpectralModel(Torus3(spin=(0.0, 0.0, 0.0))), 2),
    ]:
        values, mults = enumerate_spectrum(model, 4).T
        assert mults[np.abs(values) <= ZERO_TOL].sum() == expected
        if not isinstance(model.geometry, Torus3):
            families = progression_spectrum(model).families
            assert sum(fam.crossing()[1] for fam in families) == expected


# --- lens spaces -----------------------------------------------------------

def test_torus_shift_collision_case():
    t = _TORUS_COLLIDING.flux_shift
    x = {v for v, _ in _reference_levels(_TORUS_COLLIDING.with_flux(0.0), 8) if v > 0}
    assert len({v + t for v in x}) < len(x)


def test_lens_weight_count_p1_is_full():
    for m in range(8):
        assert lens_weight_count(m, 0, 1) == m + 1


def test_lens_weight_count_matches_brute_force():
    ms = np.arange(-2, 201)
    for p in range(1, 31):
        # every weight of every m, counted per residue class
        tally = [collections.Counter((m - 2 * i) % p for i in range(m + 1)) for m in ms]
        for k in range(p):
            expected = [c[k] for c in tally]
            assert [lens_weight_count(m, k, p) for m in ms.tolist()] == expected
            counts = lens_weight_count(ms, k, p)
            assert counts.shape == ms.shape and counts.tolist() == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lens_character_sum_rebuilds_sphere(p):
    sphere = enumerate_spectrum(SpectralModel(Sphere3(1.0)), 8)
    acc: dict[float, int] = {}
    for k in range(p):
        for v, m in enumerate_spectrum(SpectralModel(Lens(p), LensCharacter(p, k)), 8):
            acc[v] = acc.get(v, 0) + m
    assert acc == {v: m for v, m in sphere}


def test_lens_trivial_bundle_is_character_zero():
    a = enumerate_spectrum(SpectralModel(Lens(3)), 6)
    b = enumerate_spectrum(SpectralModel(Lens(3), LensCharacter(3, 0)), 6)
    assert np.array_equal(a, b)


def test_rp3_first_levels():
    # L(2), trivial character: +3/2 survives with multiplicity 2, -3/2 dies
    items = enumerate_spectrum(SpectralModel(Lens(2)), 2)
    table = {v: m for v, m in items}
    assert table[1.5] == 2
    assert -1.5 not in table
    assert table[-2.5] == 6


# --- progression form ------------------------------------------------------

@pytest.mark.parametrize("model", [
    SpectralModel(Circle(1.0), CircleHolonomy(0.3)),
    SpectralModel(Circle(2.0), CircleHolonomy(0.3), flux_shift=1.7),
    SpectralModel(Sphere3(1.0), flux_shift=0.4),
    SpectralModel(Sphere3(1.0), flux_shift=2.2),
    SpectralModel(Lens(3), LensCharacter(3, 2), flux_shift=-0.6),
    SpectralModel(Lens(2), LensCharacter(2, 1)),
] + [
    # the lens multiplicities are a closed form per residue class mod 2p:
    # every character, over four periods at p = 12
    pytest.param(SpectralModel(Lens(p), LensCharacter(p, k)), id=f"lens-{p}-{k}")
    for p in range(2, 13) for k in range(p)
])
def test_progressions_rebuild_enumerated_spectrum(model, cutoff=100):
    # each family starts at its flux-shifted offset, on either side of zero,
    # and holds its kernel modes, which the rebuild leaves out
    rebuilt: dict[float, int] = {}
    for fam in progression_spectrum(model).families:
        k = 0
        while fam.offset + fam.step * k <= (cutoff - 4) / getattr(model.geometry, "radius", 1.0):
            v = fam.sign * (fam.offset + fam.step * k)
            mult = round(_poly_at(fam.mult_coeffs, k))
            if mult and abs(v) > ZERO_TOL:
                rebuilt[round(v, 9)] = rebuilt.get(round(v, 9), 0) + mult
            k += 1
    window = max(abs(v) for v in rebuilt) if rebuilt else 0.0
    expected = {}
    for v, m in enumerate_spectrum(model, cutoff):
        if abs(v) <= window and abs(v) > 1e-9:
            expected[round(v, 9)] = expected.get(round(v, 9), 0) + m
    assert rebuilt == expected


def test_progressions_kernel_split():
    # (n, K) per family: the negative sphere branch has its first level at 0
    ps = progression_spectrum(SpectralModel(Sphere3(1.0), flux_shift=1.5))
    assert [fam.crossing() for fam in ps.families] == [(0, 0), (0, 2)]
    ps = progression_spectrum(SpectralModel(Circle(1.0)))
    assert sum(fam.crossing()[1] for fam in ps.families) == 1


@pytest.mark.parametrize("model", [
    SpectralModel(Circle(1.37), CircleHolonomy(0.3), flux_shift=-2.71),
    SpectralModel(Circle(0.81), flux_shift=0.9),
    SpectralModel(Sphere3(1.1), flux_shift=0.37),
    SpectralModel(Sphere3(0.93), TrivialBundle(3), flux_shift=-5.2),
    SpectralModel(Lens(12, 1.1), LensCharacter(12, 5), flux_shift=0.37),
    SpectralModel(Lens(7, 2.9), LensCharacter(7, 0), flux_shift=-1.3),
])
def test_family_table_gives_the_families_of_the_branches_at_the_radius(model):
    # the table is built at radius 1; a call divides by the radius and adds
    # the flux, the float operations of the branches at that radius
    t = model.flux_shift
    expected = []
    for v0, step, coeffs in model.geometry.branches(model.bundle.twist):
        sign = 1 if step > 0 else -1
        expected.append(Progression(sign, sign * (v0 + t), abs(step),
                                    tuple(float(c) for c in coeffs)))
    spectrum = progression_spectrum(model)
    assert spectrum.families == tuple(expected)
    assert spectrum.rank == model.rank
    assert progression_spectrum(model.with_flux(0.0)).table is spectrum.table


def test_progressions_torus_unsupported():
    with pytest.raises(ValueError):
        progression_spectrum(SpectralModel(Torus3()))


@pytest.mark.parametrize("coeffs,message", [
    ((0.5,), "not integer-valued at k=0"),
    ((-1.0,), "negative at k=0"),
])
def test_progression_refuses_a_bad_multiplicity_every_time(coeffs, message):
    # the check is memoized on the coefficients, and a failure is never stored
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            Progression(1, 1.0, 1.0, coeffs)


def _lens_branches_in_full(p, r, k_char):
    # Lens.branches with every class recomputed per call: the reference for
    # its table cached per (p, k)
    period = 2 * p
    g = 2 if p % 2 == 0 else 1
    out = []
    for rho in range(period):
        for shift, step_sign in ((0, 1.0), (1, -1.0)):
            m, base = rho + shift, rho + 2 - shift
            n0 = lens_weight_count(m, k_char, p)
            d1 = 2 * g if (m - k_char) % g == 0 else 0
            coeffs = [base * n0, base * d1 + period * n0, period * d1]
            if all(c == 0 for c in coeffs):
                continue
            out.append((step_sign * (1.5 + rho) / r, step_sign * period / r, coeffs))
    return out


@pytest.mark.parametrize("radius", [1.0, 1.3])
@pytest.mark.parametrize("p", [2, 3, 12])
def test_lens_branches_equal_the_closed_form_in_full(p, radius):
    for k in range(p):
        assert Lens(p, radius).branches(k) == _lens_branches_in_full(p, radius, k)


def test_lens_branches_hand_out_fresh_coefficient_lists():
    first = Lens(12, 1.3).branches(5)
    first[0][2][0] += 1
    first[1][2].append(7)
    assert Lens(12, 1.3).branches(5) == _lens_branches_in_full(12, 1.3, 5)


# --- torus operator ---------------------------------------------------------

def test_torus_operator_free_matches_enumerator():
    geo = Torus3((1.0, 1.3, 0.7), (0.5, 0.0, 0.5))
    op = build_torus_operator(geo, TorusFlux.constant(0.0), cutoff=3)
    eigs = np.linalg.eigvalsh(op.matrix.toarray())
    model = SpectralModel(geo)
    spec = enumerate_spectrum(model, 3)
    exact = np.sort(np.repeat(spec[:, 0], spec[:, 1].astype(np.int64)))
    # compare on the common complete shell
    shell = 2 * np.pi * (3 + 0.5) / max(geo.lengths)
    eigs = eigs[np.abs(eigs) <= shell]
    assert eigs.size == exact.size
    assert np.max(np.abs(eigs - exact)) <= 1e-10


def test_torus_operator_constant_flux_is_shift():
    geo = Torus3()
    free = build_torus_operator(geo, TorusFlux.constant(0.0), cutoff=2)
    shifted = build_torus_operator(geo, TorusFlux.constant(0.8), cutoff=2)
    a = np.linalg.eigvalsh(free.matrix.toarray())
    b = np.linalg.eigvalsh(shifted.matrix.toarray())
    assert np.max(np.abs(b - (a + 0.8))) <= 1e-10


def test_torus_degree_one_flux_is_holonomy_shift():
    # c(i H1) for constant H1 = sum a_j e^j adds i a_j c(e_j) to the symbol
    # 2 pi i w_j c(e_j) of d/dx_j: the holonomy moves by a_j L_j / (2 pi)
    geo = Torus3((1.0, 1.3, 0.7))
    theta, a = np.array([0.3, 0.1, 0.0]), np.array([0.7, -1.1, 0.4])
    rep = build_gamma_rep(3)
    h1 = FluxForm((FormComponent.from_terms(1, {(j,): a[j] for j in range(3)}),))
    grad = dict(enumerate(rep.gammas))
    block = _clifford_terms(rep, h1.complex_terms())
    _, twisted = _assemble_blocks(geo, theta, 6, grad, {(0, 0, 0): block})
    _, shifted = _assemble_blocks(geo, theta + a * np.array(geo.lengths) / (2 * np.pi), 6,
                                  grad, {})
    assert abs(twisted - shifted).max() <= 1e-13
    assert abs(shifted).max() > 50.0


def test_torus_operator_cosine_structure():
    geo = Torus3()
    op = build_torus_operator(geo, TorusFlux.cosine(0, 1.0), cutoff=2)
    mat = op.matrix
    assert abs(mat - mat.getH()).max() <= 1e-12
    # coupling only along the first axis, one Fourier step, scalar on spinors
    index = {v: i for i, v in enumerate(map(tuple, op.modes.tolist()))}
    row = 2 * index[(0, 0, 0)]
    assert abs(mat[row, 2 * index[(1, 0, 0)]] - 0.5) <= 1e-15
    assert abs(mat[row, 2 * index[(-1, 0, 0)]] - 0.5) <= 1e-15
    assert mat[row, 2 * index[(0, 1, 0)]] == 0.0
    assert mat[row, 2 * index[(1, 0, 0)] + 1] == 0.0


PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _reference_assembly(geo, theta, cutoff, diag_block, coupling):
    """Per-mode loop assembly of a torus block operator: the reference for
    the array assembler (same entry order, zeros skipped)."""
    rng = range(-cutoff, cutoff + 1)
    modes = list(itertools.product(rng, rng, rng))
    index = {v: i for i, v in enumerate(modes)}
    w = np.array([[(v[j] + geo.spin[j] + theta[j]) / geo.lengths[j] for j in range(3)]
                  for v in modes])
    rows, cols, data = [], [], []

    def put(i, j, block):
        for a in range(2):
            for b in range(2):
                if block[a, b] != 0:
                    rows.append(2 * i + a)
                    cols.append(2 * j + b)
                    data.append(block[a, b])

    for i, v in enumerate(modes):
        put(i, i, diag_block(w[i]))
        for u, blk in coupling.items():
            j = index.get((v[0] - u[0], v[1] - u[1], v[2] - u[2]))
            if j is not None:
                put(i, j, blk)
    nm = len(modes)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(2 * nm, 2 * nm), dtype=complex)
    return modes, mat


def _assert_same_csr(mat, ref):
    assert mat.indices.dtype == ref.indices.dtype and mat.indptr.dtype == ref.indptr.dtype
    for name in ("data", "indices", "indptr"):
        assert getattr(mat, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("cutoff", [2, 3, 4])
@pytest.mark.parametrize("flux", [
    TorusFlux.constant(0.7), TorusFlux.cosine(1, -0.9, 1), TorusFlux.cosine(2, 0.6, 2),
], ids=["constant", "cosine-1", "cosine-2"])
def test_array_assembly_matches_mode_loop(flux, cutoff):
    # (v + delta) + theta != v + (delta + theta) for some v at these offsets;
    # the trivial bundle with spin offset 0 on axis 1 has w_1 = 0 exactly at
    # v_1 = 0, where the diagonal blocks hold exact zeros
    geo = Torus3((1.0, 1.3, 0.7), (0.5, 0.0, 0.5))
    for bundle in (TorusHolonomy((0.2, 0.35, 0.9)), TrivialBundle()):
        _assert_assembly_matches_mode_loop(geo, bundle, flux, cutoff)
    at_zero = 2 * (cutoff * (2 * cutoff + 1) ** 2 + cutoff * (2 * cutoff + 1))  # v = (0, 0, -N)
    mat = torus_twisted_derivative(geo, flux, cutoff, 1, TrivialBundle())
    assert at_zero not in mat.indices[mat.indptr[at_zero]:mat.indptr[at_zero + 1]]


def _assert_assembly_matches_mode_loop(geo, bundle, flux, cutoff):
    theta, eye, table = np.broadcast_to(bundle.twist, 3), np.eye(2, dtype=complex), flux.table()

    op = build_torus_operator(geo, flux, cutoff, bundle)
    modes, ref = _reference_assembly(
        geo, theta, cutoff, lambda wv: 2.0 * np.pi * sum(wv[j] * PAULI[j] for j in range(3)),
        {u: c * eye for u, c in table.items()})
    _assert_same_csr(op.matrix, ref)
    assert op.modes.tolist() == [list(v) for v in modes]
    margin = max(flux.bandwidth, 1)
    interior = [k for i, v in enumerate(modes) if max(map(abs, v)) <= cutoff - margin
                for k in (2 * i, 2 * i + 1)]
    assert op.interior_indices(margin).tolist() == interior

    for axis in range(3):
        blk = 1.0j * PAULI[axis]
        _, ref = _reference_assembly(
            geo, theta, cutoff, lambda wv: 2.0j * np.pi * wv[axis] * eye,
            {u: c * blk for u, c in table.items()})
        _assert_same_csr(torus_twisted_derivative(geo, flux, cutoff, axis, bundle), ref)

    f_sq = flux.convolved()
    for block in (eye, np.array([[1.0, 2.0j], [-2.0j, 3.0]])):
        _, ref = _reference_assembly(
            geo, theta, cutoff, lambda _: f_sq.get((0, 0, 0), 0.0) * block,
            {u: c * block for u, c in f_sq.items() if u != (0, 0, 0)})
        _assert_same_csr(
            torus_multiplication_operator(geo, f_sq, cutoff, bundle, block=block), ref)


@pytest.mark.parametrize("bundle,message", [
    (LensCharacter(3, 1), "does not admit bundle LensCharacter"),
    (TrivialBundle(2), "rank-1 bundles"),
], ids=["lens-character", "rank-2"])
def test_torus_operator_rejects_unsupported_bundles(bundle, message):
    with pytest.raises(ValueError, match=message):
        build_torus_operator(Torus3(), TorusFlux.constant(0.1), 2, bundle)


def test_torus_flux_reality_validation():
    with pytest.raises(ValueError):
        TorusFlux((((1, 0, 0), 1.0 + 0.0j),))  # missing conjugate partner
    TorusFlux((((1, 0, 0), 0.5 + 0.25j), ((-1, 0, 0), 0.5 - 0.25j)))


@pytest.mark.parametrize("make,message", [
    (lambda: TorusFlux.cosine(0, float("nan")), "must be finite"),
    (lambda: TorusFlux.cosine(2, float("inf"), 1), "must be finite"),
    (lambda: TorusFlux.constant(float("-inf")), "must be finite"),
    (lambda: TorusFlux((((0, 0, 0), complex(0.1, float("nan"))),)), "must be finite"),
    (lambda: TorusFlux.cosine(1, 0.5, 0), "must be distinct"),  # (0,0,0) twice
    (lambda: TorusFlux((((1, 0, 0), 0.5), ((-1, 0, 0), 0.5), ((1, 0, 0), 0.5))),
     "must be distinct"),
], ids=["cosine-nan", "cosine-inf", "constant-inf", "complex-nan", "harmonic-0", "repeated"])
def test_torus_flux_refuses_non_finite_and_repeated_wave_vectors(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_volume_and_curvature():
    assert Sphere3(1.0).volume == pytest.approx(2 * np.pi**2)
    assert Lens(3).volume == pytest.approx(2 * np.pi**2 / 3)
    assert Torus3((2.0, 1.0, 1.0)).volume == pytest.approx(2.0)
    assert Sphere3(2.0).scalar_curvature == pytest.approx(1.5)
    assert Torus3().scalar_curvature == 0.0
