import numpy as np
import pytest

from twisteta.eta import eta_for_model
from twisteta.models import (
    Circle,
    CircleHolonomy,
    Lens,
    LensCharacter,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusFlux,
    build_torus_operator,
)
from twisteta.specflow import (
    AffinePath,
    AmbiguousCrossingError,
    check_flux_response,
    reduced_local_term,
    sf_affine,
    sf_for_flux,
    sf_matrix,
)


def sphere_path(u_max, shells=4):
    lines = []
    for k in range(shells):
        lines.append((-(1.5 + k), 1.0, (k + 1) * (k + 2)))
        lines.append((+(1.5 + k), 1.0, (k + 1) * (k + 2)))
    return AffinePath(lines=tuple(lines), u_max=u_max)


def test_sf_affine_sphere_crossing():
    res = sf_affine(sphere_path(2.0))
    assert res.flow == 2
    assert len(res.crossings) == 1
    assert res.crossings[0].u == pytest.approx(1.5)
    assert res.crossings[0].multiplicity == 2
    assert res.crossings[0].direction == 1
    assert res.endpoint_kernel_flags == (False, False)


def test_sf_affine_no_crossing():
    res = sf_affine(sphere_path(1.0))
    assert res.flow == 0 and res.crossings == ()


def test_sf_affine_concatenation_additivity():
    whole = sf_affine(sphere_path(2.8))
    first = sf_affine(sphere_path(1.0))
    # second leg: lines advanced by u = 1.0
    lines = tuple((l0 + s * 1.0, s, m) for l0, s, m in sphere_path(1.0).lines)
    second = sf_affine(AffinePath(lines=lines, u_max=1.8))
    assert whole.flow == first.flow + second.flow


def test_sf_affine_slope_perturbation_stability():
    base = sphere_path(2.0)
    eps = 0.05  # < gap / u_max
    lines = tuple((l0, s + eps, m) for l0, s, m in base.lines)
    assert sf_affine(AffinePath(lines=lines, u_max=2.0)).flow == sf_affine(base).flow


def test_sf_affine_endpoint_kernel_flagged():
    res = sf_affine(AffinePath(lines=((0.0, 1.0, 1), (1.0, 1.0, 1)), u_max=1.0))
    assert res.endpoint_kernel_flags[0]
    assert res.convention_sensitive
    # the line leaving zero at u=0 is not counted on (0, u_max]
    assert res.flow == 0
    res = sf_affine(AffinePath(lines=((-1.0, 1.0, 3),), u_max=1.0))
    assert res.endpoint_kernel_flags[1]
    assert res.flow == 3  # arrives at zero from below exactly at u_max


def test_sf_affine_rejects_zero_line():
    with pytest.raises(ValueError):
        sf_affine(AffinePath(lines=((0.0, 0.0, 1),), u_max=1.0))


def test_sf_affine_zero_slope_never_crosses():
    res = sf_affine(AffinePath(lines=((-0.5, 0.0, 4),), u_max=10.0))
    assert res.flow == 0 and res.crossings == ()


# --- matrix flow -------------------------------------------------------------

def test_sf_matrix_matches_affine_on_torus_path():
    geo = Torus3()
    base = build_torus_operator(geo, TorusFlux.constant(0.0), cutoff=1).matrix.toarray()
    eye = np.eye(base.shape[0])
    u_max = 2 * np.pi * np.sqrt(3) / 2 + 0.1  # just past the first shell

    def family(u):
        return base + u * eye

    grid = np.linspace(0.0, u_max, 9)
    res = sf_matrix(family, grid)
    exact = sf_for_flux(SpectralModel(geo), u_max)
    assert res.flow == exact.flow
    assert res.flow == 8  # eight lattice modes sit on the first shell
    assert len(res.crossings) == 1
    assert res.crossings[0].multiplicity == 8
    assert res.crossings[0].u == pytest.approx(2 * np.pi * np.sqrt(3) / 2, abs=1e-9)


def test_sf_matrix_constant_path():
    mat = np.diag([1.0, -2.0, 3.0])
    res = sf_matrix(lambda u: mat, [0.0, 0.5, 1.0])
    assert res.flow == 0 and res.crossings == ()


def test_sf_matrix_scaling_invariance():
    def family(u):
        return np.diag([u - 0.3, u + 1.0, -u - 2.0])

    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    a = sf_matrix(family, grid)
    b = sf_matrix(lambda u: 5.0 * family(u), grid)
    assert a.flow == b.flow == 1
    assert a.crossings[0].u == pytest.approx(b.crossings[0].u, abs=1e-10)


def test_sf_matrix_ambiguous_crossing_raises():
    ztol = 1e-9

    def family(u):
        return np.diag([ztol * (u - 0.5)])  # crosses zero inside the tolerance band

    with pytest.raises(AmbiguousCrossingError) as exc:
        sf_matrix(family, [0.0, 1.0], zero_tol=ztol)
    lo, hi = exc.value.interval
    assert 0.0 <= lo < hi <= 1.0


def test_sf_matrix_validates_input():
    with pytest.raises(ValueError):
        sf_matrix(lambda u: np.eye(2), [0.0])
    with pytest.raises(ValueError):
        sf_matrix(lambda u: np.array([[0.0, 1.0], [0.0, 0.0]]), [0.0, 1.0])


# --- flux-response identities --------------------------------------------------

def test_check_flux_response_bare_zero_flux():
    rpt = check_flux_response(SpectralModel(Sphere3(1.0), flux_shift=0.0))
    assert rpt.residuals["bare"] == pytest.approx(0.0, abs=1e-13)
    assert rpt.sf.flow == 0 and rpt.h == 0.0


def test_check_flux_response_bare_reports_measured_residual():
    # the report must reproduce |delta eta - 2 sf - t Vol/(2 pi^2)| computed
    # from independently queried pieces
    model = SpectralModel(Sphere3(1.0), flux_shift=0.3)
    rpt = check_flux_response(model)
    eta_t = eta_for_model(model, "hurwitz").eta
    eta_0 = eta_for_model(model.with_flux(0.0), "hurwitz").eta
    assert rpt.h == pytest.approx(0.3 * 2 * np.pi**2, abs=1e-12)
    expected = abs(eta_t - eta_0 - 0.0 - 0.3)
    assert rpt.residuals["bare"] == pytest.approx(expected, abs=1e-12)
    # measured response is t/2 - 2 t^3/3, so the bare-constant residual is
    # genuinely nonzero here
    assert rpt.residuals["bare"] > 1e-3


def test_check_flux_response_bare_rejects_kernel_endpoint():
    with pytest.raises(ValueError):
        check_flux_response(SpectralModel(Sphere3(1.0), flux_shift=1.5))


@pytest.mark.parametrize("model,engine,cutoff", [
    (SpectralModel(Sphere3(1.0), flux_shift=0.1), "hurwitz", None),
    (SpectralModel(Sphere3(1.0), flux_shift=2.0), "hurwitz", None),
    (SpectralModel(Sphere3(2.0), flux_shift=0.4), "hurwitz", None),
    (SpectralModel(Lens(3), LensCharacter(3, 1), flux_shift=0.8), "hurwitz", None),
    (SpectralModel(Lens(2), LensCharacter(2, 1), flux_shift=-0.6), "hurwitz", None),
])
def test_check_flux_response_calibrated_exact_models(model, engine, cutoff):
    rpt = check_flux_response(model, engine=engine, cutoff=cutoff)
    assert rpt.residuals["calibrated"] <= 1e-10


def test_check_flux_response_calibrated_torus_heat():
    model = SpectralModel(Torus3(), flux_shift=0.5)
    rpt = check_flux_response(model, engine="heat_kernel", cutoff=40)
    assert rpt.residuals["calibrated"] <= 1e-8
    assert rpt.terms["calibrated"] == pytest.approx(-0.5**3 / (3 * np.pi**2), abs=1e-15)


def test_check_flux_response_calibrated_crossing_bookkeeping():
    rpt = check_flux_response(SpectralModel(Sphere3(1.0), flux_shift=2.0))
    assert rpt.sf.flow == 2
    assert rpt.sf.crossings[0].u == pytest.approx(1.5)
    assert rpt.residuals["calibrated"] <= 1e-10


def test_check_flux_response_shared_zero_flux_eta():
    # a sweep passes the unfluxed eta in once; every residual must be the one
    # measured with the endpoint evaluated in place
    model = SpectralModel(Lens(3), LensCharacter(3, 1), flux_shift=0.8)
    eta_zero = eta_for_model(model.with_flux(0.0), "hurwitz")
    shared = check_flux_response(model, eta_zero=eta_zero)
    alone = check_flux_response(model)
    assert shared.residuals == alone.residuals
    assert shared.error_budget == alone.error_budget
    kernel = eta_for_model(SpectralModel(Circle(1.0), flux_shift=0.0), "hurwitz")
    assert kernel.kernel_dim == 1
    with pytest.raises(ValueError, match="endpoint operator has a kernel"):
        check_flux_response(SpectralModel(Sphere3(1.0), flux_shift=0.3), eta_zero=kernel)


def test_reduced_local_term_values():
    # R Vol t/(24 pi^2) - Vol t^3/(3 pi^2): unit sphere gives t/2 - 2 t^3/3
    t = 0.7
    assert reduced_local_term(SpectralModel(Sphere3(1.0)), t) == pytest.approx(
        t / 2 - 2 * t**3 / 3, abs=1e-14)
    assert reduced_local_term(SpectralModel(Torus3()), t) == pytest.approx(
        -(t**3) / (3 * np.pi**2), abs=1e-14)
    # lens: slope 1/(2p), cubic -2/(3p)
    assert reduced_local_term(SpectralModel(Lens(3)), t) == pytest.approx(
        t / 6 - 2 * t**3 / 9, abs=1e-14)


def test_flux_response_rejects_circle():
    with pytest.raises(ValueError):
        check_flux_response(SpectralModel(Circle(1.0), CircleHolonomy(0.25), flux_shift=0.1))
