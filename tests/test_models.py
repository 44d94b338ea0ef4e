import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from twisteta.models import (
    Circle,
    CircleHolonomy,
    EigenItem,
    Lens,
    LensCharacter,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusFlux,
    TorusHolonomy,
    TrivialBundle,
    ZeroResolutionError,
    _merge,
    build_torus_operator,
    enumerate_spectrum,
    kernel_dimension,
    lens_weight_count,
    progression_spectrum,
    torus_multiplication_operator,
    torus_twisted_derivative,
)


def test_circle_spectrum_quarter_holonomy():
    model = SpectralModel(Circle(1.0), CircleHolonomy(0.25))
    items = enumerate_spectrum(model, 2)
    assert [(v, m) for v, m in items] == [
        (-1.75, 1), (-0.75, 1), (0.25, 1), (1.25, 1), (2.25, 1)]


def test_sphere_spectrum_first_shells():
    items = enumerate_spectrum(SpectralModel(Sphere3(1.0)), 1)
    assert [(v, m) for v, m in items] == [(-2.5, 6), (-1.5, 2), (1.5, 2), (2.5, 6)]


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
    assert all(b.value == pytest.approx(a.value + 0.1, abs=1e-15)
               and b.multiplicity == a.multiplicity for a, b in zip(s0, s1))


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
    values, mults = geo.levels(model, cutoff)
    return list(zip(values.tolist(), mults.tolist()))


def _dict_merge(levels):
    merged: dict[float, int] = {}
    for v, m in levels:
        merged[v] = merged.get(v, 0) + m
    return [EigenItem(v, m) for v, m in sorted(merged.items())]


@pytest.mark.parametrize("model,cutoff", [
    (SpectralModel(Torus3(), flux_shift=0.3), 12),
    (SpectralModel(Torus3((1.0, 1.3, 0.7), (0.0, 0.5, 0.5)),
                   TorusHolonomy((0.2, 0.0, 0.4)), flux_shift=-0.1), 8),
    (SpectralModel(Torus3(spin=(0.0, 0.0, 0.0))), 6),
    (SpectralModel(Circle(0.8), CircleHolonomy(0.35), flux_shift=0.2), 50),
    (SpectralModel(Sphere3(1.3), TrivialBundle(2), flux_shift=-0.7), 30),
    (SpectralModel(Lens(5, 1.1), LensCharacter(5, 2), flux_shift=0.4), 30),
], ids=["torus-cubic", "torus-noncubic", "torus-zero-mode", "circle", "sphere", "lens"])
def test_array_merge_matches_dict_merge(model, cutoff):
    reference = _dict_merge(_reference_levels(model, cutoff))
    values, mults = _merge(*model.geometry.levels(model, cutoff))
    assert list(zip(values.tolist(), mults.tolist())) == reference
    items = enumerate_spectrum(model, cutoff)
    assert items == reference
    assert all(type(v) is float and type(m) is int for v, m in items)


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
    assert all(b.multiplicity == 3 * a.multiplicity for a, b in zip(one, three))


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
    n_lo = sum(m for _, m in enumerate_spectrum(model, cut_lo))
    n_hi = sum(m for _, m in enumerate_spectrum(model, cut_hi))
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
    assert kernel_dimension(SpectralModel(Circle(1.0), CircleHolonomy(0.25)), 10) == 0
    assert kernel_dimension(SpectralModel(Circle(1.0)), 10) == 1
    assert kernel_dimension(SpectralModel(Sphere3(1.0), flux_shift=1.5), 10) == 2
    assert kernel_dimension(SpectralModel(Torus3(spin=(0.0, 0.0, 0.0))), 4) == 2


def test_kernel_resolution_flagged():
    model = SpectralModel(Circle(1.0), CircleHolonomy(0.25), flux_shift=-0.25 + 2e-9)
    with pytest.raises(ZeroResolutionError):
        kernel_dimension(model, 10, zero_tol=1e-9)


# --- lens spaces -----------------------------------------------------------

def test_lens_weight_count_p1_is_full():
    for m in range(8):
        assert lens_weight_count(m, 0, 1) == m + 1


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
    assert a == b


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
])
def test_progressions_rebuild_enumerated_spectrum(model, cutoff=25):
    ps = progression_spectrum(model)
    rebuilt: dict[float, int] = {}
    for fam in ps.families:
        k = 0
        while True:
            v = fam.sign * (fam.offset + fam.step * k)
            if abs(v) > (cutoff - 4) / getattr(model.geometry, "radius", 1.0):
                break
            mult = round(fam.multiplicity(k))
            if mult:
                rebuilt[round(v, 9)] = rebuilt.get(round(v, 9), 0) + mult
            k += 1
    for item in ps.extras:
        rebuilt[round(item.value, 9)] = rebuilt.get(round(item.value, 9), 0) + item.multiplicity
    window = max(abs(v) for v in rebuilt) if rebuilt else 0.0
    expected = {}
    for v, m in enumerate_spectrum(model, cutoff):
        if abs(v) <= window and abs(v) > 1e-9:
            expected[round(v, 9)] = expected.get(round(v, 9), 0) + m
    assert rebuilt == expected


def test_progressions_kernel_split():
    ps = progression_spectrum(SpectralModel(Sphere3(1.0), flux_shift=1.5))
    assert ps.kernel_dim == 2
    ps = progression_spectrum(SpectralModel(Circle(1.0)))
    assert ps.kernel_dim == 1


def test_progressions_torus_unsupported():
    with pytest.raises(ValueError):
        progression_spectrum(SpectralModel(Torus3()))


# --- torus operator ---------------------------------------------------------

def test_torus_operator_free_matches_enumerator():
    geo = Torus3((1.0, 1.3, 0.7), (0.5, 0.0, 0.5))
    op = build_torus_operator(geo, TorusFlux.constant(0.0), cutoff=3)
    eigs = np.linalg.eigvalsh(op.matrix.toarray())
    model = SpectralModel(geo)
    exact = []
    for v, m in enumerate_spectrum(model, 3):
        exact.extend([v] * m)
    exact = np.sort(np.array(exact))
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


def test_torus_operator_cosine_structure():
    geo = Torus3()
    op = build_torus_operator(geo, TorusFlux.cosine(0, 1.0), cutoff=2)
    mat = op.matrix
    assert abs(mat - mat.getH()).max() <= 1e-12
    # coupling only along the first axis, one Fourier step, scalar on spinors
    idx = op.index
    assert abs(mat[2 * idx((0, 0, 0)), 2 * idx((1, 0, 0))] - 0.5) <= 1e-15
    assert abs(mat[2 * idx((0, 0, 0)), 2 * idx((-1, 0, 0))] - 0.5) <= 1e-15
    assert mat[2 * idx((0, 0, 0)), 2 * idx((0, 1, 0))] == 0.0
    assert mat[2 * idx((0, 0, 0)), 2 * idx((1, 0, 0)) + 1] == 0.0


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
    return modes, mat, w


def _assert_same_csr(mat, ref):
    assert mat.indices.dtype == ref.indices.dtype and mat.indptr.dtype == ref.indptr.dtype
    for name in ("data", "indices", "indptr"):
        assert getattr(mat, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("cutoff", [2, 3, 4])
@pytest.mark.parametrize("flux", [
    TorusFlux.constant(0.7), TorusFlux.cosine(1, -0.9, 1), TorusFlux.cosine(2, 0.6, 2),
], ids=["constant", "cosine-1", "cosine-2"])
def test_array_assembly_matches_mode_loop(flux, cutoff):
    # (v + delta) + theta != v + (delta + theta) for some v at these offsets
    geo = Torus3((1.0, 1.3, 0.7), (0.5, 0.0, 0.5))
    bundle = TorusHolonomy((0.2, 0.35, 0.9))
    theta, eye, table = bundle.theta, np.eye(2, dtype=complex), flux.table()

    op = build_torus_operator(geo, flux, cutoff, bundle)
    modes, ref, w = _reference_assembly(
        geo, theta, cutoff, lambda wv: 2.0 * np.pi * sum(wv[j] * PAULI[j] for j in range(3)),
        {u: c * eye for u, c in table.items()})
    _assert_same_csr(op.matrix, ref)
    assert op.w.tobytes() == w.tobytes()
    assert op.modes.tolist() == [list(v) for v in modes]
    margin = max(flux.bandwidth, 1)
    interior = [k for i, v in enumerate(modes) if max(map(abs, v)) <= cutoff - margin
                for k in (2 * i, 2 * i + 1)]
    assert op.interior_indices(margin).tolist() == interior

    for axis in range(3):
        blk = 1.0j * PAULI[axis]
        _, ref, _ = _reference_assembly(
            geo, theta, cutoff, lambda wv: 2.0j * np.pi * wv[axis] * eye,
            {u: c * blk for u, c in table.items()})
        _assert_same_csr(torus_twisted_derivative(geo, flux, cutoff, axis, bundle), ref)

    f_sq = flux.convolved()
    for block in (None, np.array([[1.0, 2.0j], [-2.0j, 3.0]])):
        blk = eye if block is None else block
        _, ref, _ = _reference_assembly(
            geo, theta, cutoff, lambda _: f_sq.get((0, 0, 0), 0.0) * blk,
            {u: c * blk for u, c in f_sq.items() if u != (0, 0, 0)})
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


def test_volume_and_curvature():
    assert Sphere3(1.0).volume == pytest.approx(2 * np.pi**2)
    assert Lens(3).volume == pytest.approx(2 * np.pi**2 / 3)
    assert Torus3((2.0, 1.0, 1.0)).volume == pytest.approx(2.0)
    assert Sphere3(2.0).scalar_curvature == pytest.approx(1.5)
    assert Torus3().scalar_curvature == 0.0
