"""The effects' coefficient form has one evaluator, ``mediation.EffectObjective``:
no other module of the package imports the form's private helpers or reads
them as attributes, so estimates, standard errors, t statistics and the
effect's flip are computed in one place."""

import ast
import inspect
from pathlib import Path

import pytest

import bksens
from bksens import mediation, robustness

FORM = {"_coeffs", "_direct_coeffs", "_indirect_coeffs", "_effect_values",
        "_effect_cov", "_effect_se"}
MODULES = sorted(p for p in Path(bksens.__file__).parent.glob("*.py")
                 if p.name != "mediation.py")


def _form_uses(path: Path) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            uses += [f"line {node.lineno}: imports {a.name}"
                     for a in node.names if a.name in FORM]
        elif isinstance(node, ast.Attribute) and node.attr in FORM:
            uses.append(f"line {node.lineno}: reads .{node.attr}")
    return uses


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_mediation_reads_the_coefficient_form(path):
    assert _form_uses(path) == []


def test_objective_keeps_its_robustness_name():
    # the objective is built through these classmethods under the name
    # robustness.EffectObjective.for_direct / .for_indirect
    assert robustness.EffectObjective is mediation.EffectObjective
    for name in ("for_direct", "for_indirect"):
        assert isinstance(inspect.getattr_static(mediation.EffectObjective, name),
                          classmethod)
