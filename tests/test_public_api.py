"""Snapshots of the public surface: the names ``cohkit`` exports, the
exception hierarchy and the tolerance policy. A merge that drops or adds a
public name, moves an exception under another base class, adds a tolerance
keyword or moves or changes a threshold fails here."""

import importlib
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


# the library modules; verify is the property suite, whose @_property(tol=...)
# declarations are each property's bound, not a knob of the library
LIBRARY = ("errors", "linalg", "states", "instruments", "coherence", "channels", "dilation",
           "serialize", "cli")
TOLERANCE_NAMES = {"tol", "zero_tol", "cutoff", "threshold", "group_tol"}
THRESHOLDS = {
    "DEFAULT_TOL": 1e-8, "EIG_CLAMP": 1e-9, "ZERO_TOL": 1e-10, "RANK_TOL": 1e-12,
    "PROB_FLOOR": 1e-12, "NULL_TOL": 1e-9, "GROUP_TOL": 1e-6, "IMAG_TOL": 1e-12,
}


def _library_functions():
    # every function and method the library modules define, private ones too,
    # plus the public functions of verify
    for short in (*LIBRARY, "verify"):
        module = importlib.import_module(f"cohkit.{short}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if short == "verify" and name.startswith("_"):
                continue
            if inspect.isfunction(value):
                yield f"{short}.{name}", value
            elif inspect.isclass(value):
                for attr, method in vars(value).items():
                    if inspect.isfunction(method):
                        yield f"{short}.{name}.{attr}", method


def test_only_majorization_takes_a_tolerance():
    knobs = {
        (name, param)
        for name, fn in _library_functions()
        for param in inspect.signature(fn).parameters
        if param in TOLERANCE_NAMES
    }
    assert knobs == {("linalg.majorizes", "tol"), ("linalg.weakly_majorizes", "tol")}


def test_every_threshold_is_defined_once_in_linalg():
    floats = {
        (short, name): value
        for short in LIBRARY
        for name, value in vars(importlib.import_module(f"cohkit.{short}")).items()
        if isinstance(value, float)
    }
    assert floats == {("linalg", name): value for name, value in THRESHOLDS.items()}
