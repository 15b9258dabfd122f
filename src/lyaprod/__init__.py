"""Finite-N Lyapunov exponents and variances for products of random matrices.

Closed-form spectra (Gaussian beta = 1, 2, 4, rectangular, inverse mixtures,
general covariance, truncated Haar unitary) together with numerically stable
Monte Carlo verification of every formula.
"""

__version__ = "0.1.0"

from .specfun import EULER_GAMMA, PI2_OVER_6, digamma, harmonic, trigamma
from .theory import (RectangularSpec, TheorySpectrum,
                     gaussian_spectrum, mixture_spectrum, rectangular_spectrum,
                     truncated_unitary_spectrum)
from .sigma import (JPair, SigmaSpec, j_integrals, kargin_mu1, kargin_top,
                    kargin_variance1, residue_j_sums, sigma_spectrum_complex,
                    sigma_variance1_complex)
from .ensembles import (ENSEMBLES, Ensemble, FactorStream,
                        GaussianInverseMixture, GeneralSigmaGaussian,
                        InverseGaussian, RectangularGaussian, StandardGaussian,
                        TruncatedUnitary, chain_rng)
from .montecarlo import (McEstimate, estimate, run_chain, spectral_ratio_samples,
                         stability_exponents)

__all__ = [
    "__version__",
    "EULER_GAMMA", "PI2_OVER_6", "digamma", "trigamma", "harmonic",
    "TheorySpectrum", "RectangularSpec",
    "gaussian_spectrum", "rectangular_spectrum", "mixture_spectrum",
    "truncated_unitary_spectrum",
    "SigmaSpec", "JPair", "sigma_spectrum_complex", "sigma_variance1_complex",
    "j_integrals", "residue_j_sums", "kargin_top", "kargin_mu1", "kargin_variance1",
    "Ensemble", "ENSEMBLES",
    "StandardGaussian", "GeneralSigmaGaussian", "InverseGaussian",
    "GaussianInverseMixture", "RectangularGaussian", "TruncatedUnitary",
    "FactorStream", "chain_rng",
    "McEstimate", "run_chain", "estimate",
    "stability_exponents", "spectral_ratio_samples",
]
