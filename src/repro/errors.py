"""Exception hierarchy shared across the repro package.

The hierarchy mirrors the failure categories that matter to CrashTuner:

* :class:`SimulationError` — misuse of the simulation kernel itself.
* :class:`NodeCrashedError` — control-flow exception raised inside a node
  handler when the executing node is crashed mid-handler by fault
  injection.  The event loop treats it as an expected abort, not a bug.
* :class:`NodeAbortError` — a node hit an unrecoverable fault (unhandled
  exception under an ``abort`` exception policy) and terminated itself.
  This is the "cluster down" / "startup failure" class of symptom.
* :class:`AnalysisError` — static/log analysis failed on malformed input.
* :class:`InjectionError` — fault-injection campaign misconfiguration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly (e.g. time went backwards)."""


class NodeCrashedError(ReproError):
    """The currently-executing node was crashed by fault injection.

    Raised from inside an access hook to abort the node's current handler,
    modelling an abrupt process kill.  The event loop catches it and marks
    the handler as torn down; it never propagates to user code.
    """

    def __init__(self, node_name: str):
        super().__init__(f"node {node_name} crashed mid-handler")
        self.node_name = node_name


class NodeAbortError(ReproError):
    """A node aborted due to an unhandled exception in one of its handlers."""

    def __init__(self, node_name: str, cause: BaseException):
        super().__init__(f"node {node_name} aborted: {cause!r}")
        self.node_name = node_name
        self.cause = cause


class AnalysisError(ReproError):
    """Static or log analysis received input it cannot process."""


class InjectionError(ReproError):
    """A fault-injection campaign was configured or driven incorrectly."""

