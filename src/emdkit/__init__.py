"""emdkit: empirical mode decomposition with energy-preserving variants
and Hilbert spectral analysis."""

from .core import (
    Decomposition,
    DimensionMismatchError,
    EmdkitError,
    InsufficientDataError,
    InvalidKnotsError,
    NoEnvelopeError,
    PeriodUndefinedError,
    RankDeficiencyError,
    SampledSignal,
    Variant,
    energy,
    inner_product,
    remove_mean,
)
from .envelope import EnvelopePair, ExtremaSet, build_envelopes, cubic_spline, detect_extrema
from .emd import EemdConfig, SiftConfig, eemd, emd, is_imf, sift_one_imf
from .memd import (
    DirectionSet,
    MultivariateDecomposition,
    MultivariateSignal,
    hammersley_directions,
    memd,
    multivariate_mean_envelope,
    project,
)
from .epemd import LinoepStage, epemd, epmemd, orthogonalize_stage, verify_linoep
from .gsom import GsomResult, gram_schmidt, imf_property_report, orthogonal_variants
from .hsa import AnalyticAttributes, HilbertSpectrum, analytic_signal, hilbert_spectrum, spectral_ridge
from .metrics import OrthoReport, ortho_report, pee_identity_check
from .significance import (
    ConfidenceBand,
    SignificancePoint,
    imf_statistics,
    significance_test,
    white_noise_band,
)
from .siggen import (
    CHIRP_TF_PRESET,
    SignalKind,
    SignalSpec,
    generate,
    generate_multitone4,
    harmonic_comb,
    sweep_io_t,
)

__version__ = "0.1.0"
