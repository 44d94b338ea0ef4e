import numpy as np
import pytest

from twisteta.eta import eta_for_model, rho
from twisteta.models import (
    Circle,
    CircleHolonomy,
    Lens,
    LensCharacter,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusFlux,
    TrivialBundle,
    build_torus_operator,
)
from twisteta.specflow import (
    Crossing,
    UnfluxedSpectrum,
    check_flux_response,
    reduced_local_term,
    sf_for_flux,
    sf_on_spectrum,
)
from twisteta.weitzenbock import psc_stability_sweep


def test_sf_for_flux_sphere_crossing():
    # the unit sphere's -3/2 level (multiplicity 2) is the one in [-2, 0)
    res = sf_for_flux(SpectralModel(Sphere3(1.0)), 2.0)
    assert res.flow == 2
    assert res.crossings == (Crossing(u=1.5, multiplicity=2, direction=1),)
    assert res.endpoint_kernel_flags == (False, False)


def test_sf_for_flux_negative_flux_crosses_downwards():
    res = sf_for_flux(SpectralModel(Sphere3(1.0)), -2.0)
    assert res.flow == -2
    assert res.crossings == (Crossing(u=1.5, multiplicity=2, direction=-1),)
    assert res.endpoint_kernel_flags == (False, False)


def test_sf_for_flux_no_crossing():
    res = sf_for_flux(SpectralModel(Sphere3(1.0)), 1.0)
    assert res.flow == 0 and res.crossings == ()


def test_sf_for_flux_at_zero_flux_is_the_general_count():
    # t = 0 takes the same count as every other flux: no flow, and the
    # circle's zero mode at n = 0 is flagged at both (coinciding) endpoints
    res = sf_for_flux(SpectralModel(Circle(1.0)), 0.0)
    assert res.flow == 0 and res.crossings == ()
    assert res.endpoint_kernel_flags == (True, True)
    res = sf_for_flux(SpectralModel(Sphere3(1.0)), 0.0)
    assert res.flow == 0 and res.endpoint_kernel_flags == (False, False)


def test_sf_on_spectrum_concatenation_additivity():
    spec = UnfluxedSpectrum(SpectralModel(Sphere3(1.0))).past(4.0)
    whole = sf_on_spectrum(spec, 2.8)
    first = sf_on_spectrum(spec, 1.0)
    # second leg: every eigenvalue advanced by u = 1.0
    second = sf_on_spectrum(np.column_stack([spec[:, 0] + 1.0, spec[:, 1]]), 1.8)
    assert first.flow == 0 and whole.flow == first.flow + second.flow == 8


def test_sf_on_spectrum_endpoint_kernel_flagged():
    res = sf_on_spectrum(np.array([[0.0, 1.0], [1.0, 1.0]]), 1.0)
    assert res.endpoint_kernel_flags[0]
    # the eigenvalue leaving zero at u=0 is not counted on (0, |t|]
    assert res.flow == 0
    res = sf_on_spectrum(np.array([[-1.0, 3.0]]), 1.0)
    assert res.endpoint_kernel_flags[1]
    assert res.flow == 3  # arrives at zero from below exactly at |t|


# --- dense flow ---------------------------------------------------------------

def test_sf_for_flux_matches_dense_count_on_torus_path():
    # the one check of the count by another route: along D + u, the flow is
    # the number of negative eigenvalues at u = 0 minus the number at u_max,
    # and each crossing sits at u = -lambda
    geo = Torus3()
    eigs = np.linalg.eigvalsh(
        build_torus_operator(geo, TorusFlux.constant(0.0), cutoff=1).matrix.toarray())
    u_max = 2 * np.pi * np.sqrt(3) / 2 + 0.1  # just past the first shell
    flow = int(np.sum(eigs < 0.0)) - int(np.sum(eigs + u_max < 0.0))
    exact = sf_for_flux(SpectralModel(geo), u_max)
    assert flow == exact.flow
    assert flow == 8  # eight lattice modes sit on the first shell
    crossed = -eigs[(eigs < 0.0) & (eigs + u_max >= 0.0)]
    assert len(exact.crossings) == 1
    assert exact.crossings[0].multiplicity == crossed.size == 8
    assert crossed == pytest.approx(exact.crossings[0].u, abs=1e-9)
    assert exact.crossings[0].u == pytest.approx(2 * np.pi * np.sqrt(3) / 2, abs=1e-9)


@pytest.mark.parametrize("model,flow", [
    (SpectralModel(Sphere3(1.0)), 2660),
    (SpectralModel(Lens(5), LensCharacter(5, 2)), 536),
], ids=["sphere", "lens-5-2"])
@pytest.mark.parametrize("s", [0.1, 10.0])
def test_sf_for_flux_is_scale_invariant(model, flow, s):
    # the flow depends on the conformal class: radius s and flux t/s give the
    # crossings of radius 1 and flux t
    t = 20.3
    assert sf_for_flux(model, t).flow == flow
    scaled = SpectralModel(model.geometry.scaled(s), model.bundle)
    assert sf_for_flux(scaled, t / s).flow == flow


@pytest.mark.parametrize("engine", ["hurwitz", "heat_kernel"])
def test_one_kernel_threshold(engine):
    # 5e-10 past the first crossing: the eta kernel split and the spectral
    # flow's endpoint flag both read ZERO_TOL
    model = SpectralModel(Sphere3(1.0), flux_shift=1.5 + 5e-10)
    assert eta_for_model(model, engine).kernel_dim == 2
    assert sf_for_flux(model, model.flux_shift).endpoint_kernel_flags == (False, True)


# --- flux-response identities --------------------------------------------------

def test_check_flux_response_bare_zero_flux():
    rpt = check_flux_response(SpectralModel(Sphere3(1.0), flux_shift=0.0))
    assert rpt.residuals["bare"] == pytest.approx(0.0, abs=1e-13)
    assert rpt.sf.flow == 0 and rpt.sf.crossings == ()


def test_check_flux_response_bare_reports_measured_residual():
    # the report must reproduce |delta eta - 2 sf - t Vol/(2 pi^2)| computed
    # from independently queried pieces
    model = SpectralModel(Sphere3(1.0), flux_shift=0.3)
    rpt = check_flux_response(model)
    eta_t = eta_for_model(model, "hurwitz").eta
    eta_0 = eta_for_model(model.with_flux(0.0), "hurwitz").eta
    # h/(2 pi^2) with h = t Vol = 0.3 * 2 pi^2
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
    assert reduced_local_term(model, 0.5) == pytest.approx(-0.5**3 / (3 * np.pi**2), abs=1e-15)


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


# --- top-degree rho ------------------------------------------------------------

# none of these fluxes puts a kernel on the unit sphere or its lens quotients,
# whose levels are the half-integers
RHO_FLUXES = (0.4, 1.2, 1.7, 2.6, 3.3, -1.9, 5.1)


@pytest.mark.parametrize("p", range(2, 13))
def test_rho_jumps_by_the_flow_difference_on_lens_characters(p):
    # for H = t vol the local eta variation is rank times that of the trivial
    # line, so it cancels in rho: rho(t) - rho(0) = sf_E(t) - sf_1(t)
    trivial = SpectralModel(Lens(p))
    jumps = set()
    for k in range(p):
        model = SpectralModel(Lens(p), LensCharacter(p, k))
        rho_0 = rho(model).rho
        for t in RHO_FLUXES:
            jump = sf_for_flux(model, t).flow - sf_for_flux(trivial, t).flow
            assert rho(model.with_flux(t)).rho - rho_0 == pytest.approx(jump, abs=1e-12)
            jumps.add(jump)
    assert jumps != {0}  # the identity is checked across crossings


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("t", [0.3, 1.7, 2.6, -3.3])
def test_rho_of_a_trivial_bundle_has_no_jump(rank, t):
    # sf_E = rank sf_1, so the flows cancel too and rho stays 0 past crossings
    line = SpectralModel(Sphere3(1.0))
    model = SpectralModel(Sphere3(1.0), TrivialBundle(rank), t)
    assert sf_for_flux(model, t).flow == rank * sf_for_flux(line, t).flow
    assert abs(rho(model).rho) <= 1e-12


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


def test_unfluxed_spectrum_cutoff_starts_at_eight(monkeypatch):
    # on the unit torus cutoff 16 already reaches +-103 > |t| + 1 = 61; a
    # first cutoff guessed from |t| (64) would enumerate a 131^3 mode box
    from twisteta import specflow

    seen = []
    enumerate_spectrum = specflow.enumerate_spectrum

    def recording(model, cutoff):
        seen.append(cutoff)
        return enumerate_spectrum(model, cutoff)

    monkeypatch.setattr(specflow, "enumerate_spectrum", recording)
    t = 60.0
    flow = sf_for_flux(SpectralModel(Torus3()), t).flow
    assert seen == [8, 16]
    # the zero-flux eigenvalues -2 pi |v + 1/2| in [-t, 0) cross upwards once each
    x = np.arange(-12, 12) + 0.5
    norms = 2.0 * np.pi * np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2
                                  + x[None, None, :] ** 2)
    assert flow == np.count_nonzero(norms < t) == 3648


def test_psc_sweep_enumerates_once(monkeypatch):
    # the flow comes from the spectrum the sweep already holds for its
    # minimum |lambda|
    from twisteta import specflow

    seen = []
    enumerate_spectrum = specflow.enumerate_spectrum

    def recording(model, cutoff):
        seen.append(cutoff)
        return enumerate_spectrum(model, cutoff)

    monkeypatch.setattr(specflow, "enumerate_spectrum", recording)
    rpt = psc_stability_sweep(SpectralModel(Sphere3(1.0)), [0.0, 0.2, 0.4, 0.8])
    assert seen == [8]
    assert rpt.flow == 0
