"""Lattice shells, autocorrelation spectra of squared eigenfunctions on flat
tori, translate-budget verification, and sphere-constrained extremization.

Each public name is listed once, under the module that defines it, and is
resolved on first use (PEP 562): `import torus_spectra` alone loads no
submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": """
        AliasingError AntipodalError CoefficientFileError ContractError DegenerateSimplexError
        MembershipError PointLimitError RangeError ResourceLimitError TorusSpectraError
    """,
    "extremizer": """
        AscentRun ExtremalReport ExtremizerConfig finite_difference_gradient gradient maximize
        objective
    """,
    "lattice": "Point SphereShell contains enumerate_shell shell_to_json sign_canonical",
    "lemma": """
        LemmaSweepReport Simplex TranslateReport find_translates sweep_to_json validate_simplex
        verify_lemma
    """,
    "spectra": """
        AutocorrelationSpectrum BoundReport EigenfunctionCoeffs ParsevalResult SpectrumEngine
        applicable_bound autocorrelation bound_constant bound_verdict check_theorem
        coeffs_from_json coeffs_to_json grid_density lp_norm min_alias_free_grid parseval_check
        random_coeffs
    """,
    "sweeps": "SweepRow sweep",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
