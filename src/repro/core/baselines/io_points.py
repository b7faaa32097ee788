"""IO point identification (paper Section 4.2.2, Table 8).

* IO classes are ``Closeable`` (the substrate's ``java.io.Closeable``)
  and its subtypes; IO methods are their public methods whose names start
  with one of :data:`~repro.cluster.io.IO_METHOD_PREFIXES`.
* Static IO points are call sites to IO methods outside the IO library,
  found on the same type model the meta-info analysis builds.
* Dynamic IO points are executed static IO points with their bounded call
  stack, recorded by the crash profiler's own doubling loop
  (:func:`~repro.core.profiler.double_to_fixpoint`) from the access bus's
  ``"before"`` IO events.  An event's location is the call site and its
  stack is the one a meta-info access there would carry, so the two
  baselines are counted the same way.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.io import IO_METHOD_PREFIXES, io_keys
from repro.cluster.state import AccessEvent
from repro.core.analysis import AnalysisReport
from repro.core.analysis.types import TypeModel
from repro.core.profiler import double_to_fixpoint
from repro.systems.base import SystemUnderTest


@dataclass(frozen=True)
class StaticIOPoint:
    module: str
    lineno: int
    method: str
    enclosing: str

    @property
    def location(self) -> Tuple[str, int]:
        return (self.module, self.lineno)


@dataclass(frozen=True)
class DynamicIOPoint:
    point: StaticIOPoint
    stack: Tuple[str, ...]
    scale: int = 1


@dataclass
class IOPointReport:
    """The Table 8 row for one system."""

    system: str
    io_classes: List[str]
    io_methods: List[str]  # "Class.method"
    static_points: List[StaticIOPoint]
    dynamic_points: List[DynamicIOPoint] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        return {
            "io_classes": len(self.io_classes),
            "io_methods": len(self.io_methods),
            "static_io_points": len(self.static_points),
            "dynamic_io_points": len(self.dynamic_points),
        }


def _io_classes(model: TypeModel) -> Set[str]:
    """Closeable and its transitive subtypes."""
    return {"Closeable"} | model.subtypes_of("Closeable")


def find_io_points(analysis: AnalysisReport) -> IOPointReport:
    """Static IO classes/methods/points for one analysed system."""
    from repro.cluster import io as io_module
    from repro.core.analysis.logging_statements import ModuleSource

    # The IO library itself is part of the analysed program, like
    # java.io is part of the JVM's class universe.
    sources = list(analysis.sources)
    if all(s.name != io_module.__name__ for s in sources):
        sources.append(ModuleSource.load(io_module))
    model = TypeModel.build(sources)
    classes = _io_classes(model)
    methods: List[str] = []
    method_names: Set[str] = set()
    for cls_name in sorted(classes):
        info = model.classes.get(cls_name)
        if info is None:
            continue
        for method in info.methods.values():
            if method.name.startswith(IO_METHOD_PREFIXES):
                methods.append(f"{cls_name}.{method.name}")
                method_names.add(method.name)

    points: List[StaticIOPoint] = []
    for src in sources:
        if src.name == io_module.__name__:
            continue  # call sites inside the IO library are not app points
        for cls_info in model.classes.values():
            if cls_info.module != src.name:
                continue
            for method in cls_info.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if not isinstance(func, ast.Attribute):
                        continue
                    if func.attr not in method_names:
                        continue
                    points.append(StaticIOPoint(
                        module=src.name, lineno=node.lineno, method=func.attr,
                        enclosing=f"{cls_info.name}.{method.name}",
                    ))
    return IOPointReport(
        system=analysis.system,
        io_classes=sorted(classes & set(model.classes)),
        io_methods=methods,
        static_points=points,
    )


def profile_io_points(
    system: SystemUnderTest,
    report: IOPointReport,
    seed: int = 0,
    config: Optional[Dict[str, Any]] = None,
    max_iterations: int = 3,
) -> IOPointReport:
    """Fill in dynamic IO points with the profiler's doubling loop, keyed
    to the ``"before"`` event of every IO method."""
    by_location: Dict[Tuple[str, int], StaticIOPoint] = {
        p.location: p for p in report.static_points
    }
    found: Dict[Tuple, DynamicIOPoint] = {}

    def record(event: AccessEvent, scale: int) -> None:
        point = by_location.get(event.location)
        if point is not None:
            found.setdefault((point.location, event.stack),
                             DynamicIOPoint(point=point, stack=event.stack, scale=scale))

    double_to_fixpoint(system, record, io_keys("before"), found, seed=seed,
                       config=config, max_iterations=max_iterations)
    report.dynamic_points = sorted(
        found.values(), key=lambda d: (d.point.location, d.stack)
    )
    return report
