"""What the package root exports, and README's example of it."""

import re
import warnings
from pathlib import Path
from types import ModuleType

import pytest

import anbeam
from anbeam.oracles import golden_section


def test_star_import_binds_the_public_names_but_no_submodule():
    """`from anbeam import *` must not bind anbeam.types over the standard
    library's types, nor any other submodule."""
    namespace = {}
    exec("from anbeam import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, ModuleType)] == []
    assert "types" not in namespace
    assert {"solve_total", "solve_individual", "oracle_total", "NetworkInstance"} <= set(namespace)


def test_golden_section_is_an_oracle_helper_not_a_package_export():
    assert "golden_section" not in anbeam.__all__
    assert not hasattr(anbeam, "golden_section")
    assert golden_section(lambda r: -(r - 0.5) ** 2, 0.0, 1.0).x == pytest.approx(0.5, abs=1e-6)


def test_readme_python_api_example_runs_without_a_warning(capsys):
    """README's "Python API" code block runs as written, every warning an
    error, and prints the answers of its two solves."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Python API\n\n```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.endswith(f"{namespace['sol'].c_d} ()\n")
