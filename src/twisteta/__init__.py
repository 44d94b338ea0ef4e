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
    check_hat,
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
    UnconvergedError,
    eta_for_model,
    eta_heat,
    eta_hurwitz,
    rho,
)
from .models import (
    Circle,
    CircleHolonomy,
    EigenItem,
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
    ZeroResolutionError,
    build_torus_operator,
    enumerate_spectrum,
    kernel_dimension,
    progression_spectrum,
)
from .specflow import (
    AffinePath,
    AmbiguousCrossingError,
    Crossing,
    FluxResponseReport,
    SfResult,
    check_flux_response,
    reduced_local_term,
    sf_affine,
    sf_for_flux,
    sf_matrix,
)
from .weitzenbock import (
    LwReport,
    PscSweepReport,
    PscThreshold,
    TheoremViolationError,
    lw_check_deg3,
    lw_check_general,
    psc_stability_sweep,
    psc_threshold,
)
