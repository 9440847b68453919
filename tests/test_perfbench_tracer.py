"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps package functions and methods by name, among
them ``BoxUnion.window_complex``, ``quotient_complex``,
``full_coverage_check``, ``CoverWindow.__init__``, ``stabilization_check``
and ``Box.intersect`` (counted, although no package code calls it). A
rename breaks the traced benchmark run; installing and uninstalling the
tracer here catches it.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    wrapped = [(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTS]
    originals = [owner.__dict__[attr] for owner, attr in wrapped]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(wrapped, originals))
