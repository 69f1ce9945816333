"""The shipped rule pack.

Every rule flags the line to fix: a source of nondeterminism where it
enters, or a hazard inside one function.  None traces a flow.

Determinism
-----------
``DET001``  wall-clock reads outside :mod:`repro.inet.clock`
``DET002``  global / unseeded randomness (module-level ``random.*``,
            ``os.urandom``, ``uuid.uuid4``, ``secrets``)
``DET003``  unordered ``set`` / ``dict.keys`` iteration feeding ordered
            output without ``sorted()``, including a set bound to a
            name earlier in the same function
``DET004``  full-world iteration (``.truths`` / ``.targets()``) inside
            epoch-scoped code (``repro/core/epoch*``), where steady-state
            cost must scale with the delta, not the universe
``DET005``  environment reads (``os.environ``, ``os.getenv``) and
            object identity (``id()``, ``hash()`` outside ``__hash__``)

Error hygiene
-------------
``ERR001``  bare/broad ``except`` whose body only swallows

DNS semantics
-------------
``DNS001``  raw string comparison against DNS-name-like literals where
            :class:`repro.dns.name.DnsName` should be used
``RES001``  ``Resolver`` construction / ``Network.query`` call sites
            without explicit timeout/retry policy
``RES002``  retry loops that never bound their attempts or that wait a
            fixed constant between attempts instead of backing off

Architecture
------------
``ARCH001`` import-layering violations: ``repro.dns`` must not import
            ``repro.net``/``repro.core``, ``repro.worldgen`` and
            ``repro.zonelint`` must not import ``repro.core``, and
            ``repro.lint``/``repro.inet`` import nothing above the
            stdlib

Task concurrency
----------------
``FLW101``  a generator task writes shared state (``self.*``, a
            ``global`` or ``nonlocal``) after a yield point
``FLW102``  ``random.Random`` seeded with a numeric literal
``FLW103``  ``put``/``invalidate``/``flush`` after ``freeze()`` on the
            same receiver
"""

from __future__ import annotations

import ast
import re
import sys
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Type

from .engine import FunctionNode, ModuleContext, Rule
from .findings import Finding, Severity

__all__ = [
    "ALL_RULES",
    "CLOCK_SOURCES",
    "RNG_SOURCES",
    "RNG_PREFIXES",
    "RNG_SEEDED_CONSTRUCTOR",
    "ENV_SOURCES",
    "ENV_MAPPING",
    "OBJECT_SOURCES",
    "FREEZABLE_METHODS",
    "WallClockRule",
    "GlobalRandomRule",
    "UnsortedSetIterationRule",
    "EpochFullWorldIterationRule",
    "EnvironmentIdentityRule",
    "SilentExceptRule",
    "StringDnsComparisonRule",
    "MissingTimeoutRetryRule",
    "RetryBackoffRule",
    "ImportLayeringRule",
    "YieldSharedWriteRule",
    "ConstantSeedRule",
    "FrozenCacheWriteRule",
]

# --- Sources of nondeterminism -----------------------------------------
# Names are matched after resolving each module's imports, so aliasing
# (``import time as t``) cannot hide a source.

# Wall-clock reads.  ctime/asctime-style formatters read the clock just
# as surely as time.time().
CLOCK_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.times",
    }
)

# Entropy reads (exact names).
RNG_SOURCES = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)
# Any call under these prefixes is a global-RNG draw...
RNG_PREFIXES = ("random.", "secrets.")
# ...except constructing an explicitly seeded stream, the sanctioned
# idiom: with a seed argument it is clean, without one it is entropy.
RNG_SEEDED_CONSTRUCTOR = "random.Random"

# Environment reads: calls, plus the mapping any reference to which is
# a read.
ENV_SOURCES = frozenset({"os.getenv"})
ENV_MAPPING = "os.environ"

# Object identity: builtin -> why its value differs between runs.
OBJECT_SOURCES = {
    "id": "is an allocation address and differs run to run",
    "hash": "of str/bytes changes with PYTHONHASHSEED",
}

# Cache mutators that are silent no-ops once the receiver is frozen.
FREEZABLE_METHODS = frozenset({"put", "invalidate", "flush"})


def _own_nodes(function: FunctionNode) -> Iterator[ast.AST]:
    """Every node of a function body, without entering nested defs
    (each of those gets its own visit)."""
    stack: List[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


class WallClockRule(Rule):
    """DET001: wall-clock time must come from the simulated clock.

    Any of these anywhere but ``inet/clock.py`` silently couples a run's
    output to the machine it ran on.
    """

    rule_id = "DET001"
    description = (
        "wall-clock call outside inet/clock.py; read time from SimulatedClock"
    )
    severity = Severity.ERROR
    interests = (ast.Call,)

    # Every clock source, plus sleeping on the wall clock.
    _BANNED = CLOCK_SOURCES | {"time.sleep"}
    _EXEMPT_SUFFIX = "inet/clock.py"

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if ctx.path.endswith(self._EXEMPT_SUFFIX):
            return
        resolved = ctx.resolve(node.func)
        if resolved in self._BANNED:
            yield self.finding(
                node,
                ctx,
                f"wall-clock call {resolved}() breaks determinism; "
                "thread a SimulatedClock through instead",
            )


class GlobalRandomRule(Rule):
    """DET002: randomness must be an injected, seeded ``random.Random``.

    Module-level ``random.*`` draws from interpreter-global state that
    any import or test ordering can perturb; ``os.urandom``/``uuid4``/
    ``secrets`` are entropy by design.  ``random.Random(seed)`` is the
    sanctioned construction (see ``net/latency.py`` for the idiom).
    """

    rule_id = "DET002"
    description = (
        "global or unseeded RNG; inject a seeded random.Random instead"
    )
    severity = Severity.ERROR
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved == "random.SystemRandom":
            yield self.finding(
                node, ctx, "random.SystemRandom is OS entropy; use a seeded "
                "random.Random",
            )
            return
        if resolved in RNG_SOURCES or resolved.startswith("secrets."):
            yield self.finding(
                node,
                ctx,
                f"{resolved}() is non-deterministic entropy; derive ids "
                "from the world seed instead",
            )
            return
        if resolved == RNG_SEEDED_CONSTRUCTOR:
            if not node.args and not node.keywords:
                yield self.finding(
                    node,
                    ctx,
                    "random.Random() without a seed falls back to OS "
                    "entropy; pass an explicit seed",
                )
            return
        if resolved.startswith(RNG_PREFIXES):
            yield self.finding(
                node,
                ctx,
                f"module-level {resolved}() uses the global RNG; "
                "call methods on an injected seeded random.Random",
            )


def _builds_set(node: ast.expr) -> bool:
    """Is ``node`` a set literal, a set comprehension, ``set()`` or
    ``frozenset()``?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _unordered_source(node: ast.expr) -> Optional[str]:
    """Describe ``node`` when its iteration order is set-like, else None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return ".keys()"
    return None


def _set_names(function: FunctionNode) -> FrozenSet[str]:
    """Local names that every binding in ``function`` makes a set.

    A name also bound any other way (a parameter, a loop target, an
    assignment of anything else) is left out, so a later ``bag =
    sorted(bag)`` clears it.  Augmented assignment keeps the binding.
    """
    builders: List[ast.Name] = []
    augmented: Set[ast.expr] = set()
    for node in _own_nodes(function):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            target, value = node.target, node.value
        elif isinstance(node, ast.AugAssign):
            augmented.add(node.target)
        if (
            isinstance(target, ast.Name)
            and value is not None
            and _builds_set(value)
        ):
            builders.append(target)
    args = function.args
    other = {
        arg.arg
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            args.vararg,
            args.kwarg,
        )
        if arg is not None
    }
    keeps_set = augmented.union(builders)
    for node in _own_nodes(function):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)
            and node not in keeps_set
        ):
            other.add(node.id)
    return frozenset(name.id for name in builders if name.id not in other)


def _ordered_consumers(
    node: ast.AST, ctx: ModuleContext
) -> Iterator[Tuple[ast.expr, str]]:
    """``(iterable, consumer)`` for each iterable whose iteration order
    ``node`` turns into an ordered value."""
    if isinstance(node, ast.ListComp):
        for generator in node.generators:
            yield generator.iter, "list comprehension"
        return
    if not isinstance(node, ast.Call):
        return
    func = node.func
    if len(node.args) == 1 and isinstance(func, ast.Name):
        if func.id in ("list", "tuple"):
            yield node.args[0], f"{func.id}()"
    elif len(node.args) == 1 and isinstance(func, ast.Attribute):
        if func.attr == "join":
            yield node.args[0], "str.join()"
    resolved = ctx.resolve(func) or ""
    if ("." + resolved).endswith(".MeasurementDataset.merge"):
        for argument in node.args:
            yield argument, "MeasurementDataset.merge()"


class UnsortedSetIterationRule(Rule):
    """DET003: unordered iteration must not feed ordered output.

    ``list(set(...))`` and friends are ordered by hash-table internals;
    the order reaches figures and CSV exports and varies with
    ``PYTHONHASHSEED`` history of the process.  Wrap the source in
    ``sorted()`` when the order can reach output.

    Within one function the rule also follows a name: a local bound
    only to a set is flagged when it is passed whole to ``list()``,
    ``tuple()``, ``str.join()`` or ``MeasurementDataset.merge()``, or
    iterated by a list comprehension.  A set handed to another function
    is not followed.
    """

    rule_id = "DET003"
    description = (
        "unordered set/dict.keys iteration feeding ordered output; "
        "wrap in sorted()"
    )
    severity = Severity.WARNING
    interests = (ast.Call, ast.ListComp, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = _set_names(node)
            if not names:
                return
            for inner in _own_nodes(node):
                for iterable, consumer in _ordered_consumers(inner, ctx):
                    if isinstance(iterable, ast.Name) and iterable.id in names:
                        yield self._finding(
                            inner, ctx, consumer, f"the set {iterable.id!r}"
                        )
            return
        for iterable, consumer in _ordered_consumers(node, ctx):
            source = _unordered_source(iterable)
            if source is not None:
                yield self._finding(node, ctx, consumer, source)

    def _finding(
        self, node: ast.AST, ctx: ModuleContext, consumer: str, source: str
    ) -> Finding:
        return self.finding(
            node,
            ctx,
            f"{consumer} over {source} materialises hash order; "
            "wrap the iterable in sorted()",
        )


class EnvironmentIdentityRule(Rule):
    """DET005: output must not depend on the environment or on object
    identity.

    ``os.environ`` and ``os.getenv`` couple a run to the shell that
    launched it; ``id()`` is an allocation address and ``hash()`` of a
    ``str`` changes with ``PYTHONHASHSEED``.  Flagging the read itself
    covers every flow that starts there, however many calls later it
    reaches a digest.  ``hash()`` inside ``__hash__`` is the sanctioned
    use.
    """

    rule_id = "DET005"
    description = (
        "environment read (os.environ, os.getenv) or object identity "
        "(id(), hash() outside __hash__)"
    )
    severity = Severity.ERROR
    interests = (ast.Call, ast.Attribute, ast.Name)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, (ast.Attribute, ast.Name)):
            if ctx.resolve(node) == ENV_MAPPING:
                yield self.finding(
                    node,
                    ctx,
                    "os.environ read ties output to the launching shell; "
                    "pass the value in as an argument",
                )
            return
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved in ENV_SOURCES:
            yield self.finding(
                node,
                ctx,
                f"{resolved}() ties output to the launching shell; pass "
                "the value in as an argument",
            )
        elif isinstance(node.func, ast.Name) and resolved in OBJECT_SOURCES:
            function = ctx.enclosing_function(node)
            if resolved == "hash" and function is not None:
                if function.name == "__hash__":
                    return
            yield self.finding(
                node,
                ctx,
                f"{resolved}() {OBJECT_SOURCES[resolved]}; key by a stable "
                "value instead",
            )


class SilentExceptRule(Rule):
    """ERR001: broad exception handlers must not silently swallow.

    A bare ``except:`` (or ``except Exception:``) whose body is only
    ``pass``/``continue`` turns data loss into silence — exactly how SOA
    parse failures used to vanish from the centralization analysis.
    Narrow the exception type and count or log what was skipped.
    """

    rule_id = "ERR001"
    description = "bare/broad except that only passes or continues"
    severity = Severity.ERROR
    interests = (ast.ExceptHandler,)

    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, handler: ast.ExceptHandler, ctx: ModuleContext) -> bool:
        if handler.type is None:
            return True
        if isinstance(handler.type, ast.Tuple):
            return any(
                ctx.dotted_name(element) in self._BROAD
                for element in handler.type.elts
            )
        return ctx.dotted_name(handler.type) in self._BROAD

    @staticmethod
    def _is_silent(body: List[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, (ast.Pass, ast.Continue)):
                continue
            if (
                isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis
            ):
                continue
            return False
        return True

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if self._is_broad(node, ctx) and self._is_silent(node.body):
            label = (
                "bare except"
                if node.type is None
                else f"except {ctx.dotted_name(node.type) or '...'}"
            )
            yield self.finding(
                node,
                ctx,
                f"{label} silently swallows errors; narrow the exception "
                "type and count/report the skipped item",
            )


_DOMAIN_LITERAL = re.compile(
    r"^(?:[a-z0-9_](?:[a-z0-9_-]*[a-z0-9_])?\.)+[a-z]{2,}\.?$",
    re.IGNORECASE,
)

_DNS_TOKENS = frozenset(
    {
        "domain",
        "domains",
        "qname",
        "mname",
        "rname",
        "nsdname",
        "hostname",
        "hostnames",
        "fqdn",
        "dns",
        "zone",
        "zones",
        "suffix",
        "suffixes",
        "ns",
        "nameserver",
        "nameservers",
        "apex",
        "origin",
    }
)


def _is_dns_flavoured(expr: ast.expr, ctx: ModuleContext) -> bool:
    """Does this operand smell like it holds a DNS name?"""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id == "str":
            return True
        return False
    dotted = ctx.dotted_name(expr)
    if dotted is None:
        return False
    tokens = {token for part in dotted.lower().split(".") for token in part.split("_")}
    return bool(tokens & _DNS_TOKENS)


class StringDnsComparisonRule(Rule):
    """DNS001: compare ``DnsName`` values, not raw strings.

    DNS names are case-insensitive (RFC 1034 §3.1) and may carry a
    trailing dot; ``ns1.Gov.AU`` == ``ns1.gov.au.`` as names but not as
    strings.  Every component of this reproduction normalises on
    ``DnsName`` construction — string comparison bypasses that.
    """

    rule_id = "DNS001"
    description = (
        "raw ==/in comparison against a DNS-name literal; use DnsName"
    )
    severity = Severity.WARNING
    interests = (ast.Compare,)

    _OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Compare)
        if not all(isinstance(op, self._OPS) for op in node.ops):
            return
        operands: List[ast.expr] = [node.left, *node.comparators]
        literal: Optional[str] = None
        for operand in operands:
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, str)
                and _DOMAIN_LITERAL.match(operand.value)
            ):
                literal = operand.value
                break
        if literal is None:
            return
        if any(_is_dns_flavoured(operand, ctx) for operand in operands):
            yield self.finding(
                node,
                ctx,
                f"string comparison against {literal!r} ignores DNS "
                "case-insensitivity; compare "
                f"DnsName.parse({literal!r}) values instead",
            )


class MissingTimeoutRetryRule(Rule):
    """RES001: query policy must be explicit at resolver/network edges.

    The paper's §III-B semantics (3 s timeout, one retransmission, a
    next-day retry round) are load-bearing for every defectiveness
    number; a ``Resolver`` built with defaults hides that policy.
    """

    rule_id = "RES001"
    description = (
        "Resolver/Network.query call site without explicit "
        "timeout/retry arguments"
    )
    severity = Severity.ERROR
    interests = (ast.Call,)

    @staticmethod
    def _has_double_star(node: ast.Call) -> bool:
        return any(keyword.arg is None for keyword in node.keywords)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if self._has_double_star(node):
            return
        dotted = ctx.dotted_name(node.func)
        if dotted is None:
            return
        keyword_names = {kw.arg for kw in node.keywords}
        last = dotted.rpartition(".")[2]
        if last == "Resolver":
            missing = {"timeout", "retries"} - keyword_names
            if missing:
                wanted = ", ".join(sorted(missing))
                yield self.finding(
                    node,
                    ctx,
                    f"Resolver(...) without explicit {wanted}; the paper's "
                    "§III-B query policy must be stated at construction",
                )
        elif last == "query" and "network" in dotted.lower():
            if "timeout" not in keyword_names:
                yield self.finding(
                    node,
                    ctx,
                    "network query without an explicit timeout= argument; "
                    "silent defaults hide the probe's timeout policy",
                )


class RetryBackoffRule(Rule):
    """RES002: retry loops must bound attempts and back off adaptively.

    A loop that catches a failure and ``continue``s is a retry loop.
    Two shapes make such a loop hostile to both the measured
    infrastructure and the campaign's own tail latency:

    * ``while True`` with no attempt bound — the success path exits,
      but a *persistently* failing destination is hammered forever;
    * a fixed constant wait between attempts — synchronized retries
      re-arrive in lockstep, exactly what rate limiters punish.

    :class:`repro.net.resilience.BackoffPolicy` is the sanctioned
    spacing (exponential growth, seeded jitter, a cap); attempt bounds
    belong in ``ProbeConfig.retries``.  Only the loop's own level is
    inspected — nested loops and function definitions get their own
    visit — and each loop yields at most one finding.
    """

    rule_id = "RES002"
    description = (
        "retry loop with unbounded attempts or a fixed inter-attempt "
        "wait; bound attempts and use exponential backoff with jitter"
    )
    severity = Severity.WARNING
    interests = (ast.For, ast.While)

    # Subtrees owned by another scope/visit; the shallow walk yields
    # these nodes but does not descend into them.
    _NESTED_SCOPES = (
        ast.For,
        ast.AsyncFor,
        ast.While,
        ast.FunctionDef,
        ast.AsyncFunctionDef,
        ast.ClassDef,
        ast.Lambda,
    )

    _WAIT_ATTRS = frozenset({"sleep", "advance"})

    @classmethod
    def _shallow(cls, statements: List[ast.stmt]) -> Iterator[ast.AST]:
        """Walk a loop body without entering nested loops or defs."""
        stack: List[ast.AST] = list(statements)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, cls._NESTED_SCOPES):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _is_retry_shaped(cls, loop: ast.stmt) -> bool:
        """Does the loop catch an exception and continue to retry?"""
        assert isinstance(loop, (ast.For, ast.While))
        for node in cls._shallow(loop.body):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if any(
                    isinstance(inner, ast.Continue)
                    for inner in cls._shallow(handler.body)
                ):
                    return True
        return False

    def _fixed_wait(
        self, loop: ast.stmt
    ) -> Optional[Tuple[ast.Call, float]]:
        """A ``sleep``/``advance`` call with a constant positive arg."""
        assert isinstance(loop, (ast.For, ast.While))
        for node in self._shallow(loop.body):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name not in self._WAIT_ATTRS:
                continue
            first = node.args[0]
            if (
                isinstance(first, ast.Constant)
                and isinstance(first.value, (int, float))
                and not isinstance(first.value, bool)
                and first.value > 0
            ):
                return node, float(first.value)
        return None

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, (ast.For, ast.While))
        if not self._is_retry_shaped(node):
            return
        if (
            isinstance(node, ast.While)
            and isinstance(node.test, ast.Constant)
            and bool(node.test.value)
        ):
            # A success exit does not bound the failure path.
            yield self.finding(
                node,
                ctx,
                "while-True retry loop never bounds failed attempts; a "
                "persistently failing destination is retried forever — "
                "bound the attempts and surface exhaustion as an outcome",
            )
            return
        wait = self._fixed_wait(node)
        if wait is not None:
            call, seconds = wait
            yield self.finding(
                call,
                ctx,
                f"retry loop waits a fixed {seconds:g}s between attempts; "
                "synchronized retries arrive in lockstep — use "
                "BackoffPolicy (exponential growth with seeded jitter)",
            )


class ImportLayeringRule(Rule):
    """ARCH001: enforce the repository's import layering.

    The dependency direction is ``lint < inet < net < dns < worldgen <
    zonelint < core``: the DNS data model must not reach down into the
    transport substrate or up into the analyses (the shared wire
    primitives both need live in ``repro.inet``), world generation must
    stay measurable-by (not dependent-on) the measurement pipeline,
    zonelint must derive truth without the active pipeline it verifies,
    and the lint and inet packages have to stay importable before
    anything else in the tree even parses.
    """

    rule_id = "ARCH001"
    description = (
        "import crosses a package layering boundary "
        "(dns→net/core, worldgen→core, zonelint→core, "
        "servelint→core, lint/inet→non-stdlib)"
    )
    severity = Severity.ERROR
    interests = (ast.Import, ast.ImportFrom)

    # own package prefix → forbidden imported-package prefixes
    _FORBIDDEN = (
        ("repro.dns", ("repro.net", "repro.core")),
        ("repro.worldgen", ("repro.core",)),
        ("repro.zonelint", ("repro.core",)),
        ("repro.servelint", ("repro.core",)),
    )

    # Packages that must stay importable on nothing but the stdlib and
    # their own contents (the bottom of the layering).
    _SELF_CONTAINED = ("repro.lint", "repro.inet")

    @staticmethod
    def _own_module(ctx: ModuleContext) -> Optional[str]:
        """Dotted module name from the reported path, or None when the
        file is not under a ``repro`` package root."""
        parts = ctx.path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return None
        tail = parts[parts.index("repro"):]
        if not tail[-1].endswith(".py"):
            return None
        # ``__init__`` is kept as a component: ``repro/lint/__init__.py``
        # behaves like a module of the ``repro.lint`` package, which
        # makes relative-import resolution uniform (level N strips N
        # trailing components).
        tail[-1] = tail[-1][: -len(".py")]
        return ".".join(tail)

    @staticmethod
    def _resolve_relative(own: str, level: int, module: str) -> Optional[str]:
        """Absolute form of a ``from ...x import y`` target."""
        # For a module file, ``from . import x`` means the containing
        # package; each extra dot climbs one more package.
        base = own.split(".")[:-level] if level <= own.count(".") + 1 else None
        if base is None:
            return None
        name = ".".join(base)
        if module:
            name = f"{name}.{module}" if name else module
        return name

    def _targets(
        self, node: ast.AST, own: str
    ) -> Iterator[str]:
        """Absolute dotted names this import statement reaches."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
            return
        assert isinstance(node, ast.ImportFrom)
        if node.level == 0:
            base = node.module or ""
        else:
            resolved = self._resolve_relative(own, node.level, node.module or "")
            if resolved is None:
                return
            base = resolved
        if base:
            yield base
        # ``from pkg import sub`` may bind a submodule: check the
        # joined form too so package-level re-imports don't slip by.
        for alias in node.names:
            if alias.name != "*" and base:
                yield f"{base}.{alias.name}"

    @staticmethod
    def _within(target: str, package: str) -> bool:
        return target == package or target.startswith(package + ".")

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        own = self._own_module(ctx)
        if own is None:
            return
        targets = list(self._targets(node, own))
        for package in self._SELF_CONTAINED:
            if self._within(own, package):
                yield from self._check_self_contained(
                    node, ctx, targets, package
                )
                return
        for package, forbidden in self._FORBIDDEN:
            if not self._within(own, package):
                continue
            for target in targets:
                for banned in forbidden:
                    if self._within(target, banned):
                        yield self.finding(
                            node,
                            ctx,
                            f"{package} must not import {banned} "
                            f"(imports {target})",
                        )
                        return
            return

    def _check_self_contained(
        self,
        node: ast.AST,
        ctx: ModuleContext,
        targets: List[str],
        package: str,
    ) -> Iterator[Finding]:
        stdlib = getattr(sys, "stdlib_module_names", None)
        for target in targets:
            if self._within(target, "repro"):
                if self._within(target, package):
                    continue
                yield self.finding(
                    node,
                    ctx,
                    f"{package} must stay importable on its own; it must "
                    f"not import {target}",
                )
                return
            head = target.partition(".")[0]
            if stdlib is not None and head and head not in stdlib:
                yield self.finding(
                    node,
                    ctx,
                    f"{package} imports non-stdlib module {head!r}; this "
                    "layer depends on nothing above the stdlib",
                )
                return


class EpochFullWorldIterationRule(Rule):
    """DET004: epoch-scoped code must not iterate the full world.

    The longitudinal loop's whole value proposition is that a
    steady-state epoch costs O(changed), not O(universe).  A ``for``
    loop or comprehension that walks ``<world>.truths`` or a
    ``.targets()`` call inside ``repro/core/epoch*`` re-introduces the
    full-world scan the incremental design exists to avoid — and, by
    iterating generation-order mappings rather than the dataset's
    admission order, usually a nondeterministic one too.  Bootstrap-
    style full probes belong behind an explicit universe snapshot (a
    plain dict taken once at construction), which this rule does not
    match.
    """

    rule_id = "DET004"
    description = (
        "full-world iteration in epoch-scoped code; steady-state "
        "epochs must scale with the delta, not the universe"
    )
    severity = Severity.ERROR
    interests = (
        ast.For,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )

    _PATH = re.compile(r"(^|/)repro/core/epoch[^/]*\.py$")
    _VIEWS = frozenset({"values", "items", "keys"})

    def _full_world_source(self, expr: ast.AST) -> Optional[str]:
        """Describe ``expr`` if it enumerates the full world."""
        if isinstance(expr, ast.Attribute) and expr.attr == "truths":
            return ".truths"
        if isinstance(expr, ast.Call) and isinstance(
            expr.func, ast.Attribute
        ):
            func = expr.func
            if func.attr == "targets" and not expr.args:
                return ".targets()"
            if func.attr in self._VIEWS:
                inner = self._full_world_source(func.value)
                if inner is not None:
                    return f"{inner}.{func.attr}()"
        return None

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if not self._PATH.search(ctx.path):
            return
        if isinstance(node, ast.For):
            iterables = [node.iter]
        else:
            assert isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            )
            iterables = [generator.iter for generator in node.generators]
        for iterable in iterables:
            source = self._full_world_source(iterable)
            if source is not None:
                yield self.finding(
                    node,
                    ctx,
                    f"epoch-scoped code iterates the full world via "
                    f"{source}; probe the changed/flagged subset instead",
                )


def _is_self_attribute(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    )


class YieldSharedWriteRule(Rule):
    """FLW101: generator tasks must not write shared state across a
    yield.

    The event loop drives probe tasks as generators; every ``yield``
    hands control to another task.  A write to ``self.*``, a ``global``
    or a ``nonlocal`` that comes after a yield, or sits inside a loop
    that yields, races with whatever ran in between.
    """

    rule_id = "FLW101"
    description = (
        "generator task writes shared mutable state after a yield "
        "point without scheduler mediation (cooperative race)"
    )
    severity = Severity.ERROR
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        own = list(_own_nodes(node))
        yields = [n.lineno for n in own if isinstance(n, (ast.Yield, ast.YieldFrom))]
        if not yields:
            return
        yielding_loops: List[Tuple[int, int]] = []
        shared: Set[str] = set()
        for inner in own:
            if isinstance(inner, (ast.For, ast.AsyncFor, ast.While)):
                end = inner.end_lineno or inner.lineno
                if any(inner.lineno <= y <= end for y in yields):
                    yielding_loops.append((inner.lineno, end))
            elif isinstance(inner, (ast.Global, ast.Nonlocal)):
                shared.update(inner.names)
        for inner in own:
            for target, label in self._shared_writes(inner, shared, ctx):
                line = target.lineno
                if line > min(yields) or any(
                    start <= line <= end for start, end in yielding_loops
                ):
                    yield self.finding(
                        target,
                        ctx,
                        f"generator task {node.name}() writes shared state "
                        f"'{label}' after a yield point; another task can "
                        "interleave",
                    )

    @staticmethod
    def _shared_writes(
        node: ast.AST, shared: Set[str], ctx: ModuleContext
    ) -> Iterator[Tuple[ast.expr, str]]:
        """``(target, label)`` for each shared location ``node`` writes."""
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
                continue
            base = target.value if isinstance(target, ast.Subscript) else target
            if _is_self_attribute(base) or (
                isinstance(base, ast.Name) and base.id in shared
            ):
                label = ctx.dotted_name(base) or "?"
                yield target, label + ("" if base is target else "[...]")


class ConstantSeedRule(Rule):
    """FLW102: an RNG stream must not be seeded with a literal.

    ``random.Random(0)`` hands every caller the same stream: every
    shard of a campaign, every world, every run.  Derive the seed from
    the world seed or per-shard material instead.
    """

    rule_id = "FLW102"
    description = (
        "random.Random() seeded with a numeric literal; derive the "
        "stream from per-run or per-shard material"
    )
    severity = Severity.WARNING
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if ctx.resolve(node.func) != RNG_SEEDED_CONSTRUCTOR:
            return
        seeds = [*node.args, *(keyword.value for keyword in node.keywords)]
        if (
            len(seeds) == 1
            and isinstance(seeds[0], ast.Constant)
            and isinstance(seeds[0].value, (int, float))
        ):
            yield self.finding(
                node,
                ctx,
                f"random.Random({seeds[0].value!r}) gives every caller the "
                "same stream; derive the seed from per-shard material",
            )


class FrozenCacheWriteRule(Rule):
    """FLW103: no writes to a cache after ``freeze()``.

    A frozen ``ZoneCutCache`` ignores ``put``/``invalidate``/``flush``,
    so a write after ``freeze()`` on the same receiver in one function
    is silently dropped.
    """

    rule_id = "FLW103"
    description = (
        "write to a frozen cache (put/invalidate/flush after freeze() "
        "on the same receiver is a silent no-op)"
    )
    severity = Severity.ERROR
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        calls: List[Tuple[ast.Call, str, str]] = []
        for inner in _own_nodes(node):
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
                receiver = ctx.dotted_name(inner.func.value)
                if receiver is not None:
                    calls.append((inner, receiver, inner.func.attr))
        frozen_at: Dict[str, int] = {}
        for call, receiver, method in calls:
            if method == "freeze":
                frozen_at[receiver] = min(
                    call.lineno, frozen_at.get(receiver, call.lineno)
                )
        for call, receiver, method in calls:
            line = frozen_at.get(receiver)
            if method in FREEZABLE_METHODS and line is not None and call.lineno > line:
                yield self.finding(
                    call,
                    ctx,
                    f"{receiver}.{method}() after {receiver}.freeze() "
                    f"(line {line}) is a silent no-op",
                )


ALL_RULES: Tuple[Type[Rule], ...] = (
    WallClockRule,
    GlobalRandomRule,
    UnsortedSetIterationRule,
    EpochFullWorldIterationRule,
    EnvironmentIdentityRule,
    SilentExceptRule,
    StringDnsComparisonRule,
    MissingTimeoutRetryRule,
    RetryBackoffRule,
    ImportLayeringRule,
    YieldSharedWriteRule,
    ConstantSeedRule,
    FrozenCacheWriteRule,
)
