"""Value types for the interprocedural flow analyzer.

The analysis is summary-based: each function is reduced to a
:class:`FunctionSummary` of symbolic *taint atoms* (where
nondeterminism enters, which parameters pass through, which calls it
makes, which sinks it touches), and the interprocedural phase
(:mod:`repro.lint.flow.taint`) resolves the atoms against the whole
package's call graph without ever re-reading an AST.

Atoms form a small language:

:class:`SourceAtom`
    Concrete nondeterminism entered here (wall clock, RNG, env read,
    object identity, set-iteration order, or the latent ``setlike``
    property that becomes order taint on materialization).
:class:`ParamAtom`
    The value carries whatever the function's ``index``-th parameter
    carried — the hook the caller-side instantiation hangs off.
:class:`CallAtom`
    The value is (derived from) the result of a call; resolved callees
    expand through their summaries, unresolved ones conservatively pass
    their receiver and arguments through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

__all__ = [
    "TAINT_CLOCK",
    "TAINT_RNG",
    "TAINT_ENV",
    "TAINT_OBJECT",
    "TAINT_ORDER",
    "TAINT_SETLIKE",
    "CONCRETE_TAINTS",
    "Site",
    "SourceAtom",
    "ParamAtom",
    "CallAtom",
    "Atom",
    "AtomSet",
    "SinkHit",
    "CallRecord",
    "SharedWrite",
    "FrozenWrite",
    "FunctionSummary",
    "ModuleInfo",
]

# Concrete taint kinds — each maps 1:1 to an FLW rule in rules.py.
TAINT_CLOCK = "clock"
TAINT_RNG = "rng"
TAINT_ENV = "env"
TAINT_OBJECT = "object-identity"
TAINT_ORDER = "iteration-order"
# Latent property: the value is an unordered set-like container.  It
# only becomes TAINT_ORDER when an ordered sequence is materialized
# from it (list()/tuple()/join/comprehension) without sorted().
TAINT_SETLIKE = "setlike"

CONCRETE_TAINTS = (
    TAINT_CLOCK,
    TAINT_RNG,
    TAINT_ENV,
    TAINT_OBJECT,
    TAINT_ORDER,
)


@dataclass(frozen=True, order=True)
class Site:
    """A source location plus the stripped line text (for snippets)."""

    path: str
    line: int
    column: int
    text: str = ""


@dataclass(frozen=True, order=True)
class SourceAtom:
    """Concrete nondeterminism entering at ``site``."""

    kind: str
    site: Site
    detail: str


@dataclass(frozen=True, order=True)
class ParamAtom:
    """Taint of the enclosing function's ``index``-th parameter."""

    index: int


@dataclass(frozen=True)
class CallAtom:
    """Taint of a call result, to be expanded interprocedurally.

    ``callee`` is a function key (``module:qualname``) when the call
    graph resolved the target, else ``None``; unresolved calls are
    treated as pass-through of receiver + arguments (``str(x)`` keeps
    ``x``'s taint).  ``args`` holds the atom set of every argument in
    positional order, receiver (for method calls) first when present.
    """

    callee: Optional[str]
    site: Site
    args: Tuple[FrozenSet["Atom"], ...] = ()
    # True when the call went through an attribute receiver, so
    # ``args[0]`` is the receiver and lines up with a method's ``self``.
    has_receiver: bool = False


Atom = Union[SourceAtom, ParamAtom, CallAtom]
AtomSet = FrozenSet[Atom]


@dataclass(frozen=True)
class SinkHit:
    """A determinism sink touched inside one function."""

    label: str  # e.g. "digest input", "dataset merge admission"
    site: Site
    atoms: AtomSet  # what flows into the sink


@dataclass(frozen=True)
class CallRecord:
    """One call site, for call-graph edges and arg-to-param flows."""

    callee: Optional[str]  # function key, or None when unresolved
    site: Site
    args: Tuple[AtomSet, ...]
    has_receiver: bool = False  # args[0] is the receiver when True


@dataclass(frozen=True)
class SharedWrite:
    """A write to state visible outside the current task frame."""

    target: str  # e.g. "self.counter" or global name
    site: Site
    after_yield: bool  # a yield point can run before this write


@dataclass(frozen=True)
class FrozenWrite:
    """A mutation of a cache after ``freeze()`` on the same receiver."""

    receiver: str
    method: str
    site: Site
    freeze_line: int


@dataclass
class FunctionSummary:
    """Everything the interprocedural phase needs about one function."""

    key: str  # "module:qualname"
    module: str
    path: str
    qualname: str
    lineno: int
    params: List[str] = field(default_factory=list)
    returns: List[Atom] = field(default_factory=list)
    sink_hits: List[SinkHit] = field(default_factory=list)
    calls: List[CallRecord] = field(default_factory=list)
    is_generator: bool = False
    shared_writes: List[SharedWrite] = field(default_factory=list)
    frozen_writes: List[FrozenWrite] = field(default_factory=list)
    constant_seeds: List[Site] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Bare function name (last qualname component)."""
        return self.qualname.rpartition(".")[2]


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed package."""

    path: str  # display path (posix, root-relative)
    modname: str  # absolute dotted module name, e.g. "repro.core.shard"
    imports: Dict[str, str] = field(default_factory=dict)  # absolutized
    lines: Tuple[str, ...] = ()
    classes: Dict[str, List[str]] = field(default_factory=dict)
    # classes: bare class name -> method names (for receiver inference)
