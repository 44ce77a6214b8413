"""Assembly validation: wiring, placement, cycles and MIT consistency.

:func:`validate_assembly` returns a list of :class:`Problem` records;
problems marked ``fatal`` abort the transform.  The MIT checks implement the
contract of Section 2.1: a provided method's MIT is "the maximum number of
invocations the method is able to handle in an interval of time", so the
*aggregate* invocation rate reaching it -- over all bound callers and all
call sites, each firing once per root periodic thread's period -- must not
exceed ``1/MIT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.components.threads import CallStep, EventThread

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["AssemblyError", "Problem", "MITViolation", "validate_assembly"]


class AssemblyError(RuntimeError):
    """Raised by the transform when the assembly is inconsistent."""


@dataclass(frozen=True)
class Problem:
    """One validation finding."""

    kind: str
    message: str
    fatal: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "error" if self.fatal else "warning"
        return f"[{tag}:{self.kind}] {self.message}"


class MITViolation(AssemblyError):
    """Raised when invocation rates exceed a provided method's MIT."""


def _structural(assembly) -> list[Problem]:
    problems: list[Problem] = []
    known_platforms = set(assembly.platform_names)

    for iname, comp in assembly.instances.items():
        pname = assembly.placements.get(iname)
        if pname is None:
            problems.append(
                Problem("placement", f"instance {iname!r} has no placement", True)
            )
        elif pname not in known_platforms:
            problems.append(
                Problem(
                    "placement",
                    f"instance {iname!r} placed on unknown platform {pname!r}",
                    True,
                )
            )
        # Every call site must be bound.
        for thread in comp.threads:
            for step in thread.body:
                if isinstance(step, CallStep) and (iname, step.method) not in assembly.bindings:
                    problems.append(
                        Problem(
                            "binding",
                            f"{iname}.{thread.name} calls {step.method!r} but "
                            f"{iname}.{step.method} is not bound",
                            True,
                        )
                    )

    for (caller, required), b in assembly.bindings.items():
        if caller not in assembly.instances:
            problems.append(
                Problem("binding", f"binding from unknown instance {caller!r}", True)
            )
            continue
        if b.callee not in assembly.instances:
            problems.append(
                Problem("binding", f"binding to unknown instance {b.callee!r}", True)
            )
            continue
        caller_comp = assembly.instances[caller]
        callee_comp = assembly.instances[b.callee]
        try:
            caller_comp.required_method(required)
        except KeyError:
            problems.append(
                Problem(
                    "binding",
                    f"{caller!r} does not declare required method {required!r}",
                    True,
                )
            )
        try:
            callee_comp.provided_method(b.provided)
        except KeyError:
            problems.append(
                Problem(
                    "binding",
                    f"{b.callee!r} does not provide method {b.provided!r}",
                    True,
                )
            )
            continue
        try:
            callee_comp.realizer_of(b.provided)
        except KeyError:
            problems.append(
                Problem(
                    "binding",
                    f"{b.callee}.{b.provided} is bound but no thread realizes it",
                    True,
                )
            )
        if b.network is not None and b.network not in known_platforms:
            problems.append(
                Problem(
                    "binding",
                    f"binding {caller}.{required}: unknown network platform {b.network!r}",
                    True,
                )
            )
    return problems


def _call_graph(assembly) -> nx.DiGraph:
    """Directed graph over (instance, provided-method) nodes via bindings.

    An edge ``(A, m) -> (B, n)`` exists when the thread realizing ``A.m``
    (or, for roots, a periodic thread of ``A``, encoded as ``(A, thread)``)
    contains a call bound to ``B.n``.
    """
    import networkx as nx  # only the cycle check needs it

    g = nx.DiGraph()
    for iname, comp in assembly.instances.items():
        for thread in comp.threads:
            src = (
                (iname, f"provided:{thread.realizes}")
                if isinstance(thread, EventThread)
                else (iname, f"thread:{thread.name}")
            )
            g.add_node(src)
            for step in thread.body:
                if isinstance(step, CallStep):
                    b = assembly.bindings.get((iname, step.method))
                    if b is None:
                        continue
                    dst = (b.callee, f"provided:{b.provided}")
                    g.add_edge(src, dst)
    return g


def _cycles(assembly) -> list[Problem]:
    import networkx as nx

    g = _call_graph(assembly)
    problems = []
    for cycle in nx.simple_cycles(g):
        pretty = " -> ".join(f"{i}.{m}" for i, m in cycle)
        problems.append(
            Problem("cycle", f"recursive RPC cycle: {pretty}", True)
        )
    return problems


def _call_rates(assembly) -> dict[tuple[str, str], float]:
    """Aggregate invocation rate per (callee instance, provided method).

    Each call site fires once per activation of the root periodic thread;
    nested calls inherit the root's rate.  Cycles must have been excluded
    before calling this.
    """
    rates: dict[tuple[str, str], float] = {}

    def walk(instance: str, thread, rate: float) -> None:
        for step in thread.body:
            if not isinstance(step, CallStep):
                continue
            b = assembly.bindings.get((instance, step.method))
            if b is None:
                continue
            key = (b.callee, b.provided)
            rates[key] = rates.get(key, 0.0) + rate
            try:
                realizer = assembly.instances[b.callee].realizer_of(b.provided)
            except KeyError:
                continue
            walk(b.callee, realizer, rate)

    for iname, comp in assembly.instances.items():
        for thread in comp.periodic_threads():
            walk(iname, thread, 1.0 / thread.period)
    return rates


def _mit_checks(assembly) -> list[Problem]:
    problems: list[Problem] = []
    tol = 1e-9
    for (callee, provided), rate in _call_rates(assembly).items():
        method = assembly.instances[callee].provided_method(provided)
        if rate > 1.0 / method.mit + tol:
            problems.append(
                Problem(
                    "mit",
                    f"{callee}.{provided}: aggregate invocation rate "
                    f"{rate:.6g}/unit exceeds the sustainable 1/MIT = "
                    f"{1.0 / method.mit:.6g} (MIT = {method.mit:g})",
                    True,
                )
            )
    # Caller-side declarations: a required method invoked faster than its
    # own declared MIT is a specification smell, not a hard error.
    for iname, comp in assembly.instances.items():
        for thread in comp.periodic_threads():
            per_method: dict[str, int] = {}
            for step in thread.body:
                if isinstance(step, CallStep):
                    per_method[step.method] = per_method.get(step.method, 0) + 1
            for mname, count in per_method.items():
                declared = comp.required_method(mname).mit
                actual_mit = thread.period / count
                if actual_mit < declared - 1e-9:
                    problems.append(
                        Problem(
                            "mit",
                            f"{iname}.{thread.name} invokes {mname!r} every "
                            f"{actual_mit:g} but declares MIT {declared:g}",
                            False,
                        )
                    )
    return problems


def validate_assembly(assembly) -> list[Problem]:
    """Run all checks; fatal problems abort the transform.

    Order matters: structural problems (dangling bindings, missing
    placements) make the later graph/MIT analyses meaningless, so when any
    structural problem is fatal the function returns early with just those.
    """
    problems = _structural(assembly)
    if any(p.fatal for p in problems):
        return problems
    problems += _cycles(assembly)
    if any(p.fatal for p in problems):
        return problems
    problems += _mit_checks(assembly)
    return problems
