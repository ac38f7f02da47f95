"""Every experiment reports its own id.

Docs, the scenario library and cross-experiment prose refer to
experiments by id (EXT-8 is availability), so two modules reporting the
same ``experiment_id`` make those references ambiguous.
"""

import ast
from collections import defaultdict
from pathlib import Path

import repro.experiments

EXPERIMENTS_DIR = Path(repro.experiments.__file__).parent


def _experiment_ids():
    """``{id: [module, ...]}`` for every constant ``experiment_id=``."""
    found = defaultdict(list)
    for path in sorted(EXPERIMENTS_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.keyword) or node.arg != "experiment_id":
                continue
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str
            ):
                found[node.value.value].append(path.name)
    return found


def test_ids_are_found():
    ids = _experiment_ids()
    assert "EXT-8" in ids and "EXT-14" in ids
    assert len(ids) >= 20


def test_experiment_ids_are_unique():
    duplicated = {
        experiment_id: modules
        for experiment_id, modules in _experiment_ids().items()
        if len(modules) > 1
    }
    assert not duplicated, duplicated
