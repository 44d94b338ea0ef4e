"""twisteta: eta, xi and rho invariants of flux-twisted Dirac operators on
model spin manifolds, with spectral flow, Weitzenbock checks and conformal
invariance verification."""

__version__ = "0.1.0"

from .clifford import (
    FluxForm,
    FormComponent,
    GammaRep,
    boundary_reduction_check,
    build_even_gamma_rep,
    build_gamma_rep,
    clifford_action,
    degree_adjointness,
    flux_action,
    grading_anticommute_check,
)
from .conformal import ConformalScale, check_rho_conformal, transform_flux, transform_spectrum
from .eta import (
    EtaRegularityError,
    EtaValue,
    RhoValue,
    eta_for_model,
    eta_heat,
    eta_hurwitz,
    rho,
)
from .models import (
    Circle,
    CircleHolonomy,
    Lens,
    LensCharacter,
    ModeBlockOperator,
    Progression,
    ProgressionSpectrum,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusFlux,
    TorusHolonomy,
    TrivialBundle,
    build_torus_operator,
    enumerate_spectrum,
    progression_spectrum,
)
from .specflow import (
    Crossing,
    FluxResponseReport,
    SfResult,
    check_flux_response,
    reduced_local_term,
    sf_for_flux,
    sf_on_spectrum,
)
from .weitzenbock import (
    LwReport,
    PscSweepReport,
    TheoremViolationError,
    lw_check_deg3,
    lw_check_general,
    psc_stability_sweep,
    psc_threshold,
)
