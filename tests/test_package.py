"""What the package root exports."""

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
