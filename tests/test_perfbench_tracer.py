"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps package functions and methods by name, among
them ``BoxUnion.window_complex``, ``quotient_complex``,
``full_coverage_check``, ``CoverWindow.__init__``, ``stabilization_check``
and ``Box.intersect`` (counted, although no package code calls it). A
rename breaks the traced benchmark run; installing and uninstalling the
tracer here catches it. The tracer counts the windows a scan asks for by
wrapping the builder that ``stabilization_check`` receives, so a cover scan
that stopped going through it would vanish from the trace. Likewise the
arrangement checks must still reach ``minset_of_group``,
``AffineSubspace.intersect`` and ``nerve_of_subspaces`` by those names, the
unitriangular items ``small_central_element``, ``hirsch_rank`` and the
counted ``nilpotent.mat_mul``, and the patch-system checks
``maximal_clumps``.
"""

import importlib.util
import pathlib

from nerveforge import nilpotent
from nerveforge.clumps import Patch, PatchSystem, unfolding_vanishing_check
from nerveforge.construct import strip_boxes, two_ball_gluing
from nerveforge.euclid import (Arrangement, EuclideanIsometry, almost_abelian_vanishing_check,
                               splitting_check)
from nerveforge.lattices import LatticeSubgroup
from nerveforge.nilpotent import UnitriangularGroup, elementary
from nerveforge.periodic import FiniteCoverSpec, cover_lift_check, local_vanishing_check

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


def test_tracer_counts_the_base_and_cover_scans():
    tracing = load_tracing()
    bu = strip_boxes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert local_vanishing_check(bu, n=3, r=1).ok
        assert cover_lift_check(bu, FiniteCoverSpec.of([[2]], 1), n=3, r=1).ok
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["periodic.stabilization_check.calls"] == 2
    # each scan asks for at least one radius triple
    assert metrics["periodic.stabilization_check.windows"] >= 6
    assert metrics["periodic.stabilization_check.max_radius"] >= 4
    assert metrics["homology.chain_complex.calls"] >= 2
    assert metrics["homology.chain_complex.cells"] > 0


def glide(axis, c):
    """Reflection across the plane x_axis = c composed with a unit z step."""
    a = [[-1 if i == j == axis else int(i == j) for j in range(3)] for i in range(3)]
    b = [2 * c if i == axis else 0 for i in range(3)]
    b[2] = 1
    return EuclideanIsometry.of(a, b)


def test_tracer_counts_the_arrangement_layers():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        square = Arrangement(dim=3, base=2, groups=tuple(
            (glide(axis, c),) for c in (0, 3) for axis in (0, 1)))
        assert almost_abelian_vanishing_check(square, n=3, r=1).ok
        half_turn = EuclideanIsometry.of([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [0, 0, 0])
        assert splitting_check([EuclideanIsometry.translation([0, 0, 1])], [half_turn]).ok
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    for name in ("euclid.minset_of_group", "euclid.AffineSubspace.intersect",
                 "euclid.nerve_of_subspaces"):
        assert metrics[f"{name}.calls"] > 0, name


def test_tracer_counts_the_nilpotent_and_clump_layers():
    tracing = load_tracing()
    heisenberg = UnitriangularGroup(3, (elementary(3, 0, 1), elementary(3, 1, 2)))
    ambient, u, v, membrane, _ = two_ball_gluing()
    ps = PatchSystem(ambient=ambient, patches={
        "U": Patch(support=u, group=LatticeSubgroup.from_generators([[1, 0]], 2)),
        "V": Patch(support=v, group=LatticeSubgroup.from_generators([[0, 1]], 2)),
        "W": Patch(support=membrane, group=LatticeSubgroup.from_generators([[1, 0], [0, 1]], 2)),
    })
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the module, where the tracer wraps them
        assert nilpotent.small_central_element(heisenberg).length == 4
        assert nilpotent.hirsch_rank(heisenberg) == 3
        assert unfolding_vanishing_check(ps, n=4, r=1).ok
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    for name in ("nilpotent.small_central_element", "nilpotent.hirsch_rank",
                 "nilpotent.mat_mul", "clumps.maximal_clumps"):
        assert metrics[f"{name}.calls"] > 0, name
