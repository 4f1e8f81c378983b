"""Names the end-to-end benchmark pins, checked in tier-1.

``benchmarks/e2e/spans.py`` measures each layer from outside by replacing
callables it finds with ``vars(owner)[attr]`` — so each must be *defined in*
that class body or module, not inherited or re-exported — and
``benchmarks/e2e/harness.py`` reads a few counters by name.  A refactor that
moves one of them fails here before the benchmark does.
"""

import ast
import importlib
import pathlib
import re

import numpy as np
import pytest

from repro.comm import BufferPool, Request, run_spmd
from repro.comm.stats import CommStats
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.nn import NetworkSpec, SGD

#: ``(module, class or None, attribute)`` of every wrapped callable.
WRAPPED = [
    ("repro.nn.functional", None, "conv2d_forward"),
    ("repro.nn.functional", None, "conv2d_backward_data"),
    ("repro.nn.functional", None, "conv2d_backward_filter"),
    ("repro.nn.optim", "SGD", "step"),
    ("repro.tensor.halo", None, "start_region_exchange"),
    ("repro.tensor.halo", "RegionExchange", "poll"),
    ("repro.tensor.halo", "RegionExchange", "finish"),
    ("repro.tensor.shuffle", None, "start_shuffle"),
    ("repro.tensor.shuffle", None, "shuffle"),
    ("repro.tensor.shuffle", None, "shuffle_plan_stats"),
    ("repro.tensor.shuffle", "ShuffleExchange", "finish"),
    ("repro.tensor.dist_tensor", "DistTensor", "scatter_region_add"),
    ("repro.tensor.dist_tensor", "DistTensor", "start_scatter_region_add"),
    ("repro.tensor.dist_tensor", "ScatterAddExchange", "finish"),
    ("repro.comm.communicator", "Communicator", "allreduce"),
    ("repro.comm.communicator", "Communicator", "iallreduce"),
    ("repro.comm.buffers", "BufferPool", "take"),
    ("repro.core.dist_network", "DistNetwork", "forward"),
    ("repro.core.dist_network", "DistNetwork", "backward"),
    ("repro.core.grad_reducer", "BucketedGradReducer", "add"),
    ("repro.core.grad_reducer", "BucketedGradReducer", "poll"),
    ("repro.core.grad_reducer", "BucketedGradReducer", "drain"),
    ("repro.core.trainer", "DistTrainer", "step"),
]


@pytest.mark.parametrize("module,cls,attr", WRAPPED)
def test_wrapped_callable_is_defined_where_the_benchmark_looks(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = vars(owner)[cls]
    assert callable(vars(owner)[attr])


def test_request_classes_the_benchmark_discovers():
    """``spans.py`` walks ``Request.__subclasses__()`` and wraps ``wait`` and
    ``test`` only where the class body defines them; with none found,
    ``comm.wait_ms``/``comm.test_ms``/``comm.exposed_frac`` read zero and
    nothing else fails.  Every handle the communicator returns must be one
    of the classes found."""

    def subclasses(cls):
        return [s for sub in cls.__subclasses__() for s in (sub, *subclasses(sub))]

    found = subclasses(Request)
    assert found
    for cls in found:
        assert callable(vars(cls)["wait"]) and callable(vars(cls)["test"])

    def prog(comm):
        peer = 1 - comm.rank
        comm.send(np.ones(3), peer)
        handles = [
            comm.irecv(peer),
            comm.iallreduce(np.ones(3), algorithm="direct"),
            comm.iallreduce(np.ones(3), algorithm="ring"),
        ]
        kinds = {type(h) for h in handles}
        for h in handles:
            h.wait()
        return kinds

    for kinds in run_spmd(2, prog):
        assert kinds <= set(found)


def test_environment_knobs_are_the_documented_ones():
    """Every ``REPRO_*`` variable ``src/`` reads is in the README and the
    README names no other: adding or removing a knob fails here until the
    docs say so."""
    root = pathlib.Path(__file__).resolve().parent.parent
    knob = re.compile(r"REPRO_[A-Z_]+")
    in_src = {
        name
        for path in (root / "src").rglob("*.py")
        for name in knob.findall(path.read_text())
    }
    in_readme = set(knob.findall((root / "README.md").read_text()))
    assert in_src and in_src == in_readme


@pytest.mark.parametrize(
    "doc", ["README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"]
)
def test_file_paths_the_docs_and_ci_name_exist(doc):
    """Every ``benchmarks/``, ``tests/``, ``examples/`` or ``src/`` file path
    in the README, the CI workflow or the verify skill is in the tree: a
    deleted script cannot live on in a doc or a CI step."""
    root = pathlib.Path(__file__).resolve().parent.parent
    path = re.compile(r"\b(?:benchmarks|tests|examples|src)/[\w./-]*\.\w+")
    named = set(path.findall((root / doc).read_text()))
    missing = sorted(name for name in named if not (root / name).is_file())
    assert named and not missing, f"{doc} names files that do not exist: {missing}"


def _resolves(name):
    """Import the longest module prefix of dotted ``name``, then ``getattr``
    the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _docstrings(path):
    tree = ast.parse(path.read_text())
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return "\n".join(
        ast.get_docstring(node) or ""
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    )


@pytest.mark.parametrize("doc", ["README.md", ".claude/skills/verify/SKILL.md", "src"])
def test_dotted_names_the_docs_name_resolve(doc):
    """Every dotted ``repro.…`` name in the README, the verify skill or a
    ``src/`` docstring (``:mod:``/``:class:``/``:func:`` roles and their
    ``~`` prefix included) imports and resolves: a deleted module, class or
    function cannot live on in prose."""
    root = pathlib.Path(__file__).resolve().parent.parent
    if doc == "src":
        text = "\n".join(_docstrings(p) for p in (root / "src").rglob("*.py"))
    else:
        text = (root / doc).read_text()
    named = set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text))
    missing = sorted(name for name in named if not _resolves(name))
    assert named and not missing, f"{doc} names what does not exist: {missing}"


def test_counters_the_harness_reads():
    assert BufferPool().hits == 0
    assert CommStats().sends == 0

    spec = NetworkSpec("pins")
    spec.add("input", "input", channels=2, height=8, width=8)
    spec.add("c1", "conv", ["input"], filters=2, kernel=3, pad=1)
    spec.add("c2", "conv", ["c1"], filters=2, kernel=3, pad=1)
    spec.add("gap", "gap", ["c2"])
    spec.add("fc", "fc", ["gap"], units=2)
    spec.add("loss", "softmax_ce", ["fc"])
    strategy = ParallelStrategy(
        {"input": LayerParallelism(sample=2), "c1": LayerParallelism(sample=2)},
        default=LayerParallelism(height=2),
    )
    rng = np.random.default_rng(0)
    x, t = rng.standard_normal((2, 2, 8, 8)), rng.integers(0, 2, size=2)

    def prog(comm):
        trainer = DistTrainer(DistNetwork(spec, comm, strategy, seed=0), SGD(lr=0.1))
        trainer.step(x, t)
        stats = comm.stats
        return (
            stats.sends,
            stats.collective_bytes["region_data"],
            stats.collective_bytes["shuffle"],
            trainer.comm_report(),
        )

    for sends, halo_bytes, shuffle_bytes, report in run_spmd(2, prog):
        assert sends > 0 and halo_bytes > 0 and shuffle_bytes > 0
        assert "halo exchange:" in report and "shuffle:" in report
