"""The benchmark's tracer wraps querybound functions by name; keep every name resolving."""

import importlib
import importlib.util
from pathlib import Path

from querybound.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod, path):
    owner = importlib.import_module(f"querybound.{mod}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_tracer_targets_resolve_and_restore(capsys):
    tracing = load_tracing()
    originals = {target: resolve(*target) for target in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert resolve(*target).__wrapped__ is original, target
        # the spectral_norm observer reads op.mode on both paths
        assert main(["norm", "--family", "parity", "--n", "6", "--t", "2"]) == 0
        assert main(["norm", "--family", "parity", "--n", "6", "--t", "2", "--matrix-free"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for target, original in originals.items():
        assert resolve(*target) is original, target
    modes = [s.attrs["mode"] for s in tracer.spans if s.name == "fourier_operator.spectral_norm"]
    assert modes == ["dense", "matrix_free"]
