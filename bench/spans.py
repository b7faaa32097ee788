"""The traced round's instruments: a span recorder and a CPU sampler.

Both live entirely in the benchmark.  Spans are recorded around calls
*into* a layer's public functions — either because the workload driver
makes the call itself, or because :meth:`Recorder.wrap` swapped a
module-level name for a timing wrapper for the duration of the traced
run.  Spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part its child
spans cover, so the self times of a tree always sum to the root span's
duration: every second of the traced wall is attributed exactly once.
"""

from __future__ import annotations

import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

Span = Dict[str, Any]


class Recorder:
    """In-memory spans: ``name, start, end, parent, workload``.

    A disabled recorder hands out no-op contexts, so the untraced and the
    traced round drive the program through the very same code.
    """

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._wrapped: List[Tuple[Any, str, Any]] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str) -> Iterator[Span]:
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module: Any, attr: str,
             name_of: Callable[[tuple, dict], str]) -> None:
        """Time every call of ``module.attr`` under ``name_of(args, kwargs)``.

        The original is restored by :meth:`unwrap`; a disabled recorder
        wraps nothing.
        """
        if not self.enabled:
            return
        original = getattr(module, attr)

        def timed(*args: Any, **kwargs: Any) -> Any:
            with self._record(name_of(args, kwargs)):
                return original(*args, **kwargs)

        self._wrapped.append((module, attr, original))
        setattr(module, attr, timed)

    def unwrap(self) -> None:
        while self._wrapped:
            module, attr, original = self._wrapped.pop()
            setattr(module, attr, original)


def durations(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed duration per span name (children included)."""
    out: Dict[str, float] = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
    return out


def _own_seconds(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus its direct children's."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    out: Dict[str, float] = {}
    for span, seconds in zip(spans, _own_seconds(spans)):
        out[span["name"]] = out.get(span["name"], 0.0) + seconds
    return out


def tree_problems(spans: Sequence[Span], slack: float = 1e-6) -> List[str]:
    """Why ``spans`` is not a well-formed tree (empty when it is one).

    Every span is closed, parents precede their children in the list,
    children start and end inside their parent, and no self time is
    negative.
    """
    problems: List[str] = []
    for i, span in enumerate(spans):
        parent = span["parent"]
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {i} ({span['name']}) never closed")
        elif parent is not None and not 0 <= parent < i:
            problems.append(f"span {i} ({span['name']}) has parent {parent}")
    if problems:
        return problems
    for i, span in enumerate(spans):
        if span["parent"] is None:
            continue
        outer = spans[span["parent"]]
        if span["start"] < outer["start"] - slack or span["end"] > outer["end"] + slack:
            problems.append(
                f"span {i} ({span['name']}) leaks out of its parent "
                f"{span['parent']} ({outer['name']})")
    problems.extend(
        f"span {i} ({spans[i]['name']}) has negative self time {seconds:.6f}s"
        for i, seconds in enumerate(_own_seconds(spans)) if seconds < -slack)
    return problems


class Sampler:
    """CPU-time samples of the running Python frame, bucketed by module.

    ``ITIMER_PROF`` ticks only while this process burns CPU, so the
    shares say where the *process's own* cycles went (C calls are charged
    to the Python frame that made them, like ``cProfile``'s ``tottime``)
    at ~1% overhead instead of ``cProfile``'s 2-3x.  Forked children
    inherit the handler but not the timer: snapshot resumes and daemon
    workers are not sampled.
    """

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.counts: Counter = Counter()
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        if frame is not None:
            self.counts[frame.f_globals.get("__name__", "?")] += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self, groups: Sequence[Tuple[str, str]],
               rest: str = "other") -> Dict[str, float]:
        """Fraction of samples per group; ``groups`` is ``(name, module
        prefix)`` in match order, unmatched modules land in ``rest``."""
        total = sum(self.counts.values())
        out = {name: 0.0 for name, _ in groups}
        out[rest] = 0.0
        for module, n in self.counts.items():
            for name, prefix in groups:
                if module == prefix or module.startswith(prefix + "."):
                    out[name] += n
                    break
            else:
                out[rest] += n
        return {name: (n / total if total else 0.0) for name, n in out.items()}
