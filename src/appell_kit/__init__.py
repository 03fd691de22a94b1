"""Verification toolkit for theta series, the Appell-Lerch function kappa,
rank-2 bundle gauge matrices, and their modular transformation laws.

The package root holds the kernel's two series, the registry's sampled
loop and the kernel's error classes; everything else is imported from its
module (``appell_kit.qexact``, ``appell_kit.bundles``, ...)."""

from .identities import max_residual_over_samples, verify_registry
from .numeric import DomainError, NonconvergenceError, PoleProximityError, kappa, theta

__all__ = [
    "DomainError",
    "NonconvergenceError",
    "PoleProximityError",
    "kappa",
    "max_residual_over_samples",
    "theta",
    "verify_registry",
]
