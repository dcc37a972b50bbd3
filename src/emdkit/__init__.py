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
)
from .epemd import LinoepStage, epemd, epmemd, orthogonalize_stage
from .gsom import GsomResult, gram_schmidt, imf_property_report, orthogonal_variants
from .hsa import AnalyticAttributes, HilbertSpectrum, analytic_signal, hilbert_spectrum, spectral_ridge
from .metrics import OrthoReport, ortho_report, pee_identity_check, verify_linoep
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
    sweep_io_t,
)

__version__ = "0.1.0"
