"""Quantum MDS codes from Hermitian self-orthogonal generalized RS codes."""
from __future__ import annotations

from .constructions import (
    FAMILIES,
    Params,
    QuantumParams,
    construct,
    iter_family_params,
    propagate,
    to_quantum,
    validate,
)
from .field import FieldSpec, field_for_q, make_field
from .grs import GrsSpec, dual_containment_check, hermitian_gram
from .verifier import CertBundle, certify, check_mds

__all__ = [
    "CertBundle",
    "FAMILIES",
    "FieldSpec",
    "GrsSpec",
    "Params",
    "QuantumParams",
    "certify",
    "check_mds",
    "construct",
    "dual_containment_check",
    "field_for_q",
    "hermitian_gram",
    "iter_family_params",
    "make_field",
    "propagate",
    "to_quantum",
    "validate",
]

__version__ = "0.1.0"
