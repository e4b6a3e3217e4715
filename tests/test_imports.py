"""The import contract: a process loads only the modules its run uses.

Package ``__init__`` files export lazily (``repro._lazy``), and the CLI
imports per command.  Each check that observes ``sys.modules`` runs in a
fresh interpreter, because the test process has imported everything.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import typing
from typing import Optional

import pytest

from repro.cli import main
from repro.engine import EngineOptions
from repro.faults import FaultPlan, ResiliencePolicy

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in SRC.glob("repro/**/__init__.py")
)
MODULES = sorted(
    ".".join(path.with_suffix("").relative_to(SRC).parts)
    for path in SRC.glob("repro/**/*.py")
    if path.name != "__init__.py"
)
#: modules no training run, fleet run or adaptation needs
UNUSED_BY_TRAINING = (
    "repro.theory",
    "repro.analysis",
    "repro.obs.dashboard",
    "repro.federated.hierarchy",
    "repro.federated.compression",
    "repro.federated.privacy",
    "repro.federated.simulation",
    "repro.core.async_fedml",
    "repro.core.adml",
    "repro.core.meta_sgd",
    "repro.core.reptile",
)


def fresh(code: str, *args: str) -> object:
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, timeout=300, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = """
import sys

def loaded():
    return sorted(
        m for m in sys.modules if m == "repro" or m.startswith("repro.")
    )
"""


def _is_type_checking(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    )


def _relative_names(nodes):
    """``{name: ".module"}`` (``"."`` for ``from . import x``) of the
    package's own imports, the helper's excluded."""
    names = {}
    for node in nodes:
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 1
            and node.module != "_lazy"
        ):
            module = f".{node.module}" if node.module else "."
            names.update({alias.name: module for alias in node.names})
    return names


def _tree(package: str) -> ast.Module:
    path = SRC.joinpath(*package.split("."), "__init__.py")
    return ast.parse(path.read_text(encoding="utf-8"))


#: packages whose ``__init__`` exports through ``lazy_exports``; the rest
#: (``attacks``, ``autodiff``) import every export eagerly
LAZY_PACKAGES = [
    package for package in PACKAGES
    if any(_is_type_checking(node) for node in _tree(package).body)
]


def exports_of(package: str):
    """What ``package``'s ``__init__`` declares, read from its source.

    Returns ``(__all__, TYPE_CHECKING listing, lazy map, eager imports,
    other assigned names)``; the three name maps go name -> module, and
    the listing and lazy map are empty in an eager package.
    """
    tree = _tree(package)
    guards = [node for node in tree.body if _is_type_checking(node)]
    listing, lazy = {}, {}
    for guard in guards:
        (call,) = [
            node for node in ast.walk(guard)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ]
        listing = _relative_names(guard.body)
        lazy = {
            name: module
            for module, names in ast.literal_eval(call.args[1]).items()
            for name in names
        }
    all_names, assigned = [], set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    all_names = ast.literal_eval(node.value)
                elif isinstance(target, ast.Name):
                    assigned.add(target.id)
    return all_names, listing, lazy, _relative_names(tree.body), assigned


def test_import_repro_loads_only_the_helper():
    code = LOADED + "import json, repro\nprint(json.dumps(loaded()))"
    assert fresh(code) == ["repro", "repro._lazy"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_all_listing_and_lazy_map_agree(package):
    all_names, listing, lazy, eager, assigned = exports_of(package)
    assert len(all_names) == len(set(all_names))
    assert listing == lazy
    assert not set(lazy) & set(eager)
    assert set(all_names) == set(lazy) | set(eager) | assigned
    # A lazy name equal to a submodule would read as that module once the
    # submodule is imported; such names must be imported eagerly.
    submodules = {
        module.rpartition(".")[2] for module in MODULES + PACKAGES
        if module.rpartition(".")[0] == package
    }
    assert not {
        name for name, module in lazy.items() if module != "."
    } & submodules


def test_exports_resolve_after_every_submodule_is_imported():
    expected = {}
    for package in PACKAGES:
        _, _, lazy, eager, _ = exports_of(package)
        expected[package] = {**lazy, **eager}
    wrong = fresh(
        """
        import json, sys
        from importlib import import_module

        expected, modules = json.loads(sys.argv[1]), json.loads(sys.argv[2])
        for module in modules:
            import_module(module)
        wrong = []
        for package, names in expected.items():
            pkg = import_module(package)
            for name, module in names.items():
                if module == ".":
                    want = import_module(f".{name}", package)
                else:
                    want = getattr(import_module(module, package), name)
                if getattr(pkg, name) is not want or name not in dir(pkg):
                    wrong.append(f"{package}.{name}")
        print(json.dumps(wrong))
        """,
        json.dumps(expected), json.dumps(MODULES),
    )
    assert wrong == []


FITS = """
import os
import tempfile

import numpy as np

from repro.core import (
    FedAvgConfig, FedML, FedMLConfig, RobustFedML, RobustFedMLConfig,
    evaluate_adaptation,
)
from repro.data import (
    MnistLikeConfig, Sent140LikeConfig, SyntheticConfig, generate_mnist_like,
    generate_sent140_like, generate_synthetic,
)
from repro.engine import EngineOptions, SgdStrategy, VectorizedExecutor
from repro.faults import FaultPlan
from repro.federated import FleetConfig, FleetSimulator, SyntheticShardFactory
from repro.metrics import target_splits
from repro.nn import EmbeddingClassifier, LogisticRegression

common = dict(t0=2, total_iterations=4, eval_every=1, seed=0)
synthetic = generate_synthetic(SyntheticConfig(num_nodes=6, seed=0))
mnist = generate_mnist_like(MnistLikeConfig(num_nodes=6, seed=0))
sent140 = generate_sent140_like(Sent140LikeConfig(num_nodes=6, seed=0))
embedding = EmbeddingClassifier(
    vocab_size=sent140.metadata["vocab_size"], embed_dim=8,
    seq_len=sent140.metadata["seq_len"], hidden_dims=(8,), num_classes=2,
    batch_norm=True, embedding_seed=0,
)
shards = SyntheticShardFactory(seed=0)
fleet_model = LogisticRegression(shards.input_dim, shards.num_classes)
runs = [
    (synthetic, FedML(LogisticRegression(60, 10), FedMLConfig(**common))),
    (mnist, RobustFedML(
        LogisticRegression(64, 10),
        RobustFedMLConfig(ta=2, n0=1, r_max=1, **common),
    )),
    (sent140, FedML(
        embedding, FedMLConfig(**common), executor=VectorizedExecutor()
    )),
]
fleet = FleetSimulator(
    SgdStrategy(fleet_model, FedAvgConfig(t0=1, total_iterations=2, seed=0)),
    FleetConfig(
        fleet_size=1000, sampled_per_round=8, rounds=2, buffer_size=4,
    ),
    shards=shards,
)
# Fault and checkpoint code loads when the options or the simulator that
# ask for it are made, not inside the run.
scratch = tempfile.mkdtemp()
crash = FaultPlan.from_spec("crash:rate=0.2")
faulted = FedML(
    LogisticRegression(60, 10), FedMLConfig(**common),
    engine_options=EngineOptions(
        faults=crash, checkpoint_path=os.path.join(scratch, "fedml.ckpt"),
    ),
)
gained = {}
for index, (federated, runner) in enumerate(runs):
    sources, targets = federated.split_sources_targets(
        0.8, np.random.default_rng(0)
    )
    splits = target_splits(federated, targets, k=2)
    before = loaded()
    result = runner.fit(federated, sources)
    gained[f"fit {index}"] = sorted(set(loaded()) - set(before))
    before = loaded()
    evaluate_adaptation(
        runner.model, result.params, splits, alpha=0.05, max_steps=2
    )
    gained[f"adapt {index}"] = sorted(set(loaded()) - set(before))
before = loaded()
fleet.run()
gained["fleet run"] = sorted(set(loaded()) - set(before))
sources, _ = synthetic.split_sources_targets(0.8, np.random.default_rng(0))
for resume in (False, True):
    before = loaded()
    faulted.fit(synthetic, sources, resume=resume)
    gained[f"faulted fit, resume={resume}"] = sorted(
        set(loaded()) - set(before)
    )
faulted_fleet = FleetSimulator(
    SgdStrategy(fleet_model, FedAvgConfig(t0=1, total_iterations=2, seed=0)),
    FleetConfig(
        fleet_size=1000, sampled_per_round=8, rounds=2, buffer_size=4,
    ),
    shards=shards, faults=crash,
    checkpoint_path=os.path.join(scratch, "fleet.ckpt"),
)
before = loaded()
faulted_fleet.run()
gained["faulted fleet run"] = sorted(set(loaded()) - set(before))
print(json.dumps({"gained": gained, "loaded": loaded()}))
"""


def test_training_loads_nothing_it_does_not_run():
    report = fresh(LOADED + "import json\n" + FITS)
    assert all(not new for new in report["gained"].values()), report["gained"]
    unused = [
        module for module in report["loaded"]
        if module.startswith(UNUSED_BY_TRAINING)
    ]
    assert unused == []


def test_engine_options_annotations_resolve():
    """A deferred import must not leave an annotation's name unbound."""
    hints = typing.get_type_hints(EngineOptions)
    assert hints["faults"] == Optional[FaultPlan]
    assert hints["resilience"] == Optional[ResiliencePolicy]


@pytest.mark.parametrize(
    "statement",
    [
        "from repro.analysis import lint_paths, load_baseline",
        "from repro.obs import render_report",
    ],
)
def test_reports_and_lint_import_no_numpy(statement):
    code = f"import json, sys\n{statement}\n"
    assert fresh(code + "print(json.dumps('numpy' in sys.modules))") is False


@pytest.fixture(scope="module")
def telemetry_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "run.jsonl"
    argv = [
        "train", "--nodes", "5", "--iterations", "4", "--t0", "2",
        "--adapt-steps", "1", "--json", "--telemetry-out", str(path),
    ]
    assert main(argv) == 0
    return str(path)


@pytest.mark.parametrize("command", ["report", "lint"])
def test_cli_report_and_lint_start_without_numpy(command, telemetry_file):
    lint_target = str(SRC / "repro" / "_lazy.py")
    target = telemetry_file if command == "report" else lint_target
    code = """
        import json, sys
        from repro.cli import main

        code = main([sys.argv[1], sys.argv[2], "--json"])
        print(json.dumps([code, "numpy" in sys.modules]))
    """
    assert fresh(code, command, target) == [0, False]
