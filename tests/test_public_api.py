"""Snapshots of the public surface: the names ``cohkit`` exports and the
exception hierarchy. A merge that drops or adds a public name, or moves an
exception under another base class, fails here."""

import inspect

import cohkit
from cohkit import errors

EXPORTED = {
    "BipartiteState", "CohkitError", "CorrelationMatrix", "DensityMatrix", "DilationModel",
    "FineGraining", "FixedPointResult", "GIO", "IO_NOT_SIO", "IndexMap", "KrausChannel",
    "NOT_IO", "Observable", "ParseError", "Povm", "PropertyResult", "SIO_NOT_GIO",
    "ValidationError", "VerifyConfig", "apply_channel", "apply_to_operator", "bipartite",
    "born_probabilities", "c_l1", "c_l1_coarse", "c_re", "c_re_coarse",
    "channel_superoperator", "classical_correlation", "classify", "commutant",
    "correlation_matrix_of", "dephase", "dilate", "dilate_gio", "dilate_incoherent",
    "dilate_luders", "dilate_von_neumann", "evolve_path", "extend_to_unitary",
    "extract_kraus", "factor_kraus", "fine_graining", "fixed_point_check",
    "generalized_cnot", "generalized_luders", "gio_from_correlation", "hermitian_eig",
    "hierarchy_gap", "io_completeness_check", "iterate_channel", "kraus_channel", "luders",
    "luders_discord", "luders_on_b", "luders_outcome", "majorizes", "make_povm",
    "mutual_information", "observable_from_projectors", "optimal_fine_grain",
    "partial_trace", "phase_damping", "povm_coherence", "povm_coherence_modified",
    "qi_coherence", "random_bipartite", "random_density", "random_gio", "random_io",
    "random_mixed_unitary", "random_observable", "random_povm", "random_pure", "random_sio",
    "random_unitary", "relative_entropy", "repeatable_instrument", "run_all",
    "schur_product", "shannon_entropy", "spectral_decompose", "tensor", "unitary_mixing",
    "validate_density", "von_neumann_entropy", "weakly_majorizes",
}

VALIDATION_ERRORS = {
    "ShapeMismatchError", "DimMismatchError", "LengthMismatchError", "BadParameterError",
    "NotHermitianError", "NotPositiveError", "TraceNotOneError", "InvalidStateError",
    "AmbiguousGroupingError", "BadProfileError", "BadBasisError", "NonOrthonormalError",
    "VectorOutsideEigenspaceError", "ZeroProbabilityOutcomeError",
    "IncompatibleFineGrainingError", "NotTracePreservingError", "NotGIOError", "NotPSDError",
    "DiagonalNotOneError", "NotIOFormError", "NotUnitalError", "NotIsometryError",
    "InvalidModelError", "BadDimensionError", "UnsupportedClassError",
}

ERROR_BASES = {
    "CohkitError": "Exception",
    "ParseError": "CohkitError",
    "NoConvergenceError": "CohkitError",
    "ValidationError": "CohkitError",
    **{name: "ValidationError" for name in VALIDATION_ERRORS},
}


def test_package_exports_are_fixed():
    exported = {
        name for name, value in vars(cohkit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == EXPORTED


def test_exception_classes_keep_their_bases():
    bases = {
        name: tuple(base.__name__ for base in value.__bases__)
        for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, BaseException)
    }
    assert bases == {name: (base,) for name, base in ERROR_BASES.items()}
