"""The package's public names: one per definition, each resolved on first use.

`EXPORTS` is written out here, independently of the package's own map, so
that a name dropped from, added to or moved within `torus_spectra.__init__`
fails these tests.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import torus_spectra

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTS = {
    "errors": [
        "AliasingError", "AntipodalError", "CoefficientFileError", "ContractError",
        "DegenerateSimplexError", "MembershipError", "PointLimitError", "RangeError",
        "ResourceLimitError", "TorusSpectraError",
    ],
    "extremizer": [
        "AscentRun", "ExtremalReport", "ExtremizerConfig", "finite_difference_gradient",
        "gradient", "maximize", "objective",
    ],
    "lattice": ["Point", "SphereShell", "contains", "enumerate_shell", "shell_to_json",
                "sign_canonical"],
    "lemma": ["LemmaSweepReport", "Simplex", "TranslateReport", "find_translates",
              "sweep_to_json", "validate_simplex", "verify_lemma"],
    "spectra": [
        "AutocorrelationSpectrum", "BoundReport", "EigenfunctionCoeffs", "ParsevalResult",
        "SpectrumEngine", "applicable_bound", "autocorrelation", "bound_constant", "bound_verdict",
        "check_theorem", "coeffs_from_json", "coeffs_to_json", "grid_density", "lp_norm",
        "min_alias_free_grid", "parseval_check", "random_coeffs",
    ],
    "sweeps": ["SweepRow", "sweep"],
}
OWNER = {name: module for module, names in EXPORTS.items() for name in names}


def _fresh(code: str) -> str:
    """Run `code` in a new interpreter that imports the package from this tree."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return done.stdout


def test_all_holds_the_49_public_names():
    assert len(OWNER) == 49
    assert sorted(torus_spectra.__all__) == sorted(OWNER)
    assert len(set(torus_spectra.__all__)) == 49


@pytest.mark.parametrize("name", sorted(OWNER))
def test_each_name_is_the_object_its_module_defines(name):
    owner = importlib.import_module(f"torus_spectra.{OWNER[name]}")
    namespace = {}
    exec(f"from torus_spectra import {name}", namespace)
    assert getattr(torus_spectra, name) is getattr(owner, name)
    assert namespace[name] is getattr(owner, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        torus_spectra.no_such_name
    with pytest.raises(ImportError):
        exec("from torus_spectra import no_such_name", {})


def test_dir_lists_every_public_name():
    assert set(OWNER) <= set(dir(torus_spectra))
    assert "__version__" in dir(torus_spectra)


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh(
        "import torus_spectra; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('torus_spectra.')))"
    )
    assert loaded == "[]\n"


def test_first_use_loads_only_the_owning_module_chain():
    """Resolving a lattice name loads lattice (and what it imports), not lemma or extremizer."""
    loaded = _fresh(
        "from torus_spectra import enumerate_shell; import torus_spectra; "
        "print('enumerate_shell' in vars(torus_spectra), "
        "sorted(m for m in sys.modules if m.startswith('torus_spectra.')))"
    )
    assert loaded.startswith("True [")
    assert "'torus_spectra.lattice'" in loaded
    assert "'torus_spectra.lemma'" not in loaded and "'torus_spectra.extremizer'" not in loaded


def test_submodules_import_by_name():
    """perfbench's import line: submodules are not public names, and still import."""
    from torus_spectra import cli, extremizer, jsonfmt, lattice, lemma, spectra

    assert [m.__name__ for m in (cli, extremizer, jsonfmt, lattice, lemma, spectra)] == [
        f"torus_spectra.{m}" for m in ("cli", "extremizer", "jsonfmt", "lattice", "lemma",
                                       "spectra")
    ]
