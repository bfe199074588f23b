"""The repro project rule pack for :mod:`repro.analysis.lint`.

Each rule encodes one invariant the serving/training stack actually relies
on; ``docs/lint-rules.md`` catalogues them with rationale and suppression
guidance.  Rule ids are stable (``RL001``–``RL008``) so suppressions and
baselines survive refactors of this module; a retired rule's id (RL007) is
never reused.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.lint import Finding, ModuleInfo, Rule

__all__ = ["PROJECT_RULES", "all_rules"]


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #
def _dotted_name(node: ast.AST) -> str | None:
    """Best-effort dotted name of an expression: ``self._lock.acquire``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _call_name(node: ast.Call) -> str | None:
    return _dotted_name(node.func)


def _literal_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _walk_shallow(nodes: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class bodies.

    Nested ``def``/``lambda`` bodies execute later (often in an executor
    thread), so their contents must not be attributed to the enclosing
    function.  Nested ``async def`` and classes get their own visits from the
    rule's outer traversal.
    """
    stack: list[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                continue
            stack.append(child)


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# --------------------------------------------------------------------------- #
# RL001 — no blocking calls in async def bodies under repro.serving
# --------------------------------------------------------------------------- #
class BlockingCallInAsyncRule(Rule):
    id = "RL001"
    description = (
        "async def bodies in repro.serving must not call blocking primitives "
        "(time.sleep, os.fsync, open, Lock.acquire, predict/predict_batch, "
        "sync `with lock:`) directly — dispatch via run_in_executor"
    )

    _BLOCKING_EXACT = {"time.sleep", "os.fsync", "os.replace", "open"}
    _BLOCKING_SUFFIXES = (".predict_batch", ".predict", ".read_bytes", ".write_bytes")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_scope("repro/serving"):
            return
        for fn in _functions(module.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            # An awaited call yields to the event loop by construction
            # (asyncio locks, coroutines) — only sync calls can block it.
            awaited = {
                id(node.value)
                for node in _walk_shallow(fn.body)
                if isinstance(node, ast.Await)
            }
            for node in _walk_shallow(fn.body):
                if isinstance(node, ast.Call):
                    if id(node) in awaited:
                        continue
                    name = _call_name(node)
                    if name is None:
                        continue
                    blocked = name in self._BLOCKING_EXACT or any(
                        name.endswith(suffix) for suffix in self._BLOCKING_SUFFIXES
                    )
                    if name.endswith(".acquire") and "lock" in name.lower():
                        blocked = True
                    if blocked:
                        yield self.at(
                            module,
                            node,
                            f"blocking call {name}() inside async def "
                            f"{fn.name}; move it off the event loop via "
                            f"run_in_executor",
                        )
                elif isinstance(node, ast.With):
                    for item in node.items:
                        target = _dotted_name(item.context_expr)
                        if target and "lock" in target.lower():
                            yield self.at(
                                module,
                                item.context_expr,
                                f"sync `with {target}:` inside async def "
                                f"{fn.name} blocks the event loop; use an "
                                f"asyncio lock or an executor",
                            )


# --------------------------------------------------------------------------- #
# RL002 — dtypes flow through repro.precision, not raw literals
# --------------------------------------------------------------------------- #
class RawDtypeRule(Rule):
    id = "RL002"
    description = (
        "raw float dtype literals (np.float64/np.float32, astype('float32'), "
        "dtype='float64') outside the precision whitelist — route through "
        "repro.precision.resolve_dtype so the policy stays in charge"
    )

    #: Where raw float dtypes are the point: the policy itself, the numeric
    #: kernels pinned to the paper's precision semantics, dataset
    #: construction, and the two modules whose mixed-dtype behaviour is
    #: load-bearing (dropout mask dtype, float64 grad-check probes).
    _WHITELIST = (
        "repro/precision.py",
        "repro/hypergraph/",
        "repro/data/",
        "repro/nn/dropout.py",
        "repro/autograd/grad_check.py",
    )
    _FLOAT_ATTRS = {"float64", "float32", "float16"}
    _FLOAT_STRINGS = {"float64", "float32", "float16", "f8", "f4", "<f8", "<f4"}

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_scope("repro/") or module.in_scope(*self._WHITELIST):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._FLOAT_ATTRS
                and _dotted_name(node.value) in {"np", "numpy"}
            ):
                yield self.at(
                    module,
                    node,
                    f"raw dtype literal np.{node.attr}; use "
                    f"repro.precision.resolve_dtype({node.attr!r})",
                )
            elif isinstance(node, ast.Call):
                name = _call_name(node) or ""
                if name.endswith(".astype") and node.args:
                    literal = _literal_str(node.args[0])
                    if literal in self._FLOAT_STRINGS:
                        yield self.at(
                            module,
                            node,
                            f"astype({literal!r}) bypasses the precision "
                            f"policy; use resolve_dtype",
                        )
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        literal = _literal_str(keyword.value)
                        if literal in self._FLOAT_STRINGS:
                            yield self.at(
                                module,
                                keyword.value,
                                f"dtype={literal!r} bypasses the precision "
                                f"policy; use resolve_dtype",
                            )


# --------------------------------------------------------------------------- #
# RL003 — no global-state RNG / wall-clock in kernel or serving code
# --------------------------------------------------------------------------- #
class GlobalRandomRule(Rule):
    id = "RL003"
    description = (
        "global-state RNG (np.random.seed/rand/..., random.random/...) in "
        "kernel/serving code, and wall-clock reads in numeric "
        "kernels — use seeded generators from repro.utils.rng"
    )

    #: Modules where determinism is a contract.
    _RNG_SCOPE = (
        "repro/hypergraph/",
        "repro/autograd/",
        "repro/nn/",
        "repro/optim/",
        "repro/graph/",
        "repro/serving/",
        "repro/obs/",
        "repro/models/",
    )
    #: Pure numeric kernels additionally must not read the wall clock at all
    #: (serving/obs legitimately timestamp traces and checkpoints).
    _CLOCK_SCOPE = (
        "repro/hypergraph/",
        "repro/autograd/",
        "repro/nn/",
        "repro/optim/",
        "repro/graph/",
    )
    _EXEMPT = ("repro/utils/rng.py",)

    #: np.random attributes that are fine: explicitly seeded constructors.
    _SEEDED_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
    #: stdlib ``random`` module functions that hit the shared global state.
    _STDLIB_RANDOM = {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "seed", "betavariate",
        "expovariate", "triangular", "vonmisesvariate", "getrandbits",
    }
    _CLOCKS = {
        "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    }

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_scope(*self._RNG_SCOPE) or module.in_scope(*self._EXEMPT):
            return
        clock_scoped = module.in_scope(*self._CLOCK_SCOPE)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if not name:
                continue
            parts = name.split(".")
            if (
                len(parts) >= 3
                and parts[-3] in {"np", "numpy"}
                and parts[-2] == "random"
                and parts[-1] not in self._SEEDED_OK
            ):
                yield self.at(
                    module,
                    node,
                    f"global-state RNG {name}(); thread a seeded generator "
                    f"through repro.utils.rng.as_rng instead",
                )
            elif (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in self._STDLIB_RANDOM
            ):
                yield self.at(
                    module,
                    node,
                    f"stdlib global RNG {name}(); thread a seeded generator "
                    f"through repro.utils.rng.as_rng instead",
                )
            elif clock_scoped and name in self._CLOCKS:
                yield self.at(
                    module,
                    node,
                    f"wall-clock read {name}() in a numeric kernel breaks "
                    f"determinism; take timestamps at the caller",
                )


# --------------------------------------------------------------------------- #
# RL004 — fault_point ↔ declare_fault_point consistency (cross-file)
# --------------------------------------------------------------------------- #
class FaultPointConsistencyRule(Rule):
    id = "RL004"
    description = (
        "every fault_point(name) must be declared exactly once via "
        "declare_fault_point, and every declaration must have a live use — "
        "undeclared points never fire in chaos runs, dead ones rot"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        declared: dict[str, tuple[ModuleInfo, ast.Call]] = {}
        duplicates: list[tuple[str, ModuleInfo, ast.Call]] = []
        used: dict[str, tuple[ModuleInfo, ast.Call]] = {}
        for module in modules:
            if not module.in_scope("repro/"):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node) or ""
                tail = name.split(".")[-1]
                if tail not in {"declare_fault_point", "fault_point"} or not node.args:
                    continue
                point = _literal_str(node.args[0])
                if point is None:
                    continue
                # The registry's own definitions/re-exports are not uses.
                if module.in_scope("repro/serving/faults.py"):
                    continue
                if tail == "declare_fault_point":
                    if point in declared:
                        duplicates.append((point, module, node))
                    else:
                        declared[point] = (module, node)
                else:
                    used.setdefault(point, (module, node))
        for point, (module, node) in sorted(used.items()):
            if point not in declared:
                yield self.at(
                    module,
                    node,
                    f"fault_point({point!r}) has no declare_fault_point "
                    f"declaration; chaos configs cannot validate it",
                )
        for point, (module, node) in sorted(declared.items()):
            if point not in used:
                yield self.at(
                    module,
                    node,
                    f"declare_fault_point({point!r}) has no fault_point() "
                    f"use; dead declarations advertise coverage that "
                    f"does not exist",
                )
        for point, module, node in duplicates:
            yield self.at(
                module, node, f"fault point {point!r} is declared more than once"
            )


# --------------------------------------------------------------------------- #
# RL005 — metric-name vocabulary (cross-file)
# --------------------------------------------------------------------------- #
class MetricVocabularyRule(Rule):
    id = "RL005"
    description = (
        "metric names must follow the Prometheus vocabulary: repro_ prefix, "
        "counters end _total, histograms end _seconds/_bytes/_size, and a "
        "name keeps one instrument kind across the codebase"
    )

    _KINDS = {"counter", "gauge", "histogram"}
    _HISTOGRAM_SUFFIXES = ("_seconds", "_bytes", "_size")

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        registrations: dict[str, tuple[str, ModuleInfo, ast.Call]] = {}
        for module in modules:
            if not module.in_scope("repro/", "benchmarks/"):
                continue
            if module.in_scope("repro/obs/metrics.py"):
                continue  # the registry's own constructors are not call sites
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                name = _call_name(node) or ""
                kind = name.split(".")[-1]
                if kind not in self._KINDS:
                    continue
                metric = _literal_str(node.args[0])
                if metric is None:
                    continue
                if not metric.startswith("repro_"):
                    yield self.at(
                        module,
                        node,
                        f"metric {metric!r} lacks the repro_ namespace prefix",
                    )
                if kind == "counter" and not metric.endswith("_total"):
                    yield self.at(
                        module,
                        node,
                        f"counter {metric!r} must end in _total "
                        f"(Prometheus counter convention)",
                    )
                if kind == "histogram" and not metric.endswith(
                    self._HISTOGRAM_SUFFIXES
                ):
                    yield self.at(
                        module,
                        node,
                        f"histogram {metric!r} must end in one of "
                        f"{self._HISTOGRAM_SUFFIXES} naming its unit",
                    )
                if kind == "gauge" and metric.endswith("_total"):
                    yield self.at(
                        module,
                        node,
                        f"gauge {metric!r} must not end in _total (that "
                        f"suffix promises a monotone counter)",
                    )
                previous = registrations.get(metric)
                if previous is not None and previous[0] != kind:
                    yield self.at(
                        module,
                        node,
                        f"metric {metric!r} re-registered as a {kind}; "
                        f"{previous[1].relpath}:{previous[2].lineno} already "
                        f"registers it as a {previous[0]}",
                    )
                registrations.setdefault(metric, (kind, module, node))


# --------------------------------------------------------------------------- #
# RL006 — lock discipline (static half of the race detector)
# --------------------------------------------------------------------------- #
class _LockUsage(ast.NodeVisitor):
    """Collects, per class, guarded attrs and out-of-lock accesses."""

    _MUTATORS = {
        "append", "extend", "add", "remove", "pop", "popitem", "popleft",
        "clear", "update", "insert", "discard", "setdefault", "appendleft",
        "write", "truncate", "close", "flush",
    }

    def __init__(self) -> None:
        self.guarded: set[str] = set()
        #: attr name -> [(lineno, method, in_lock)]
        self.accesses: list[tuple[str, int, str, bool, bool]] = []
        self._method = ""
        self._lock_depth = 0

    # -- traversal ------------------------------------------------------- #
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_method(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_method(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes are their own scope

    def _visit_method(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        outer, self._method = self._method, node.name
        depth, self._lock_depth = self._lock_depth, 0
        for stmt in node.body:
            self.visit(stmt)
        self._method, self._lock_depth = outer, depth

    def visit_With(self, node: ast.With) -> None:
        holds = any(
            (lambda n: n is not None and n.startswith("self.") and "lock" in n.lower())(
                _dotted_name(item.context_expr)
            )
            for item in node.items
        )
        if holds:
            self._lock_depth += 1
        for item in node.items:
            self.visit(item)
        for stmt in node.body:
            self.visit(stmt)
        if holds:
            self._lock_depth -= 1

    # -- accesses -------------------------------------------------------- #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            in_lock = self._lock_depth > 0
            mutated = isinstance(node.ctx, (ast.Store, ast.Del))
            self.accesses.append(
                (node.attr, node.lineno, self._method, in_lock, mutated)
            )
            if mutated and in_lock:
                self.guarded.add(node.attr)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``self.x[k] = v`` / ``del self.x[k]`` mutates self.x in place.
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self._lock_depth > 0
            ):
                self.guarded.add(target.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # ``self.x.append(...)`` and friends mutate self.x in place.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._MUTATORS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and self._lock_depth > 0
        ):
            self.guarded.add(func.value.attr)
        self.generic_visit(node)


class LockDisciplineRule(Rule):
    id = "RL006"
    description = (
        "attributes mutated inside `with self._lock:` blocks of a class are "
        "lock-guarded state; touching them outside a lock block (except in "
        "__init__ or *_locked helpers) is a data race in waiting"
    )

    _SCOPE = ("repro/serving/", "repro/obs/")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_scope(*self._SCOPE):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            usage = _LockUsage()
            for stmt in node.body:
                usage.visit(stmt)
            if not usage.guarded:
                continue
            for attr, lineno, method, in_lock, _ in usage.accesses:
                if attr not in usage.guarded or in_lock:
                    continue
                if method == "__init__" or method.endswith("_locked"):
                    continue
                yield self.finding(
                    module,
                    lineno,
                    f"{node.name}.{attr} is lock-guarded (mutated under "
                    f"`with self.<lock>:`) but accessed lock-free in "
                    f"{method}()",
                )


# --------------------------------------------------------------------------- #
# RL008 — public serving/obs defs document what they raise
# --------------------------------------------------------------------------- #
class DocumentedRaisesRule(Rule):
    id = "RL008"
    description = (
        "public defs in repro.serving / repro.obs that raise an exception "
        "must carry a docstring naming that exception type — callers plan "
        "error handling from docstrings, not from reading bodies"
    )

    _SCOPE = ("repro/serving/", "repro/obs/")
    #: Programming-error / flow-control raises that need no API docs.
    _IGNORED = {"NotImplementedError", "AssertionError", "StopIteration", "StopAsyncIteration"}

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_scope(*self._SCOPE):
            return
        yield from self._check_body(module, module.tree.body, public=True)

    def _check_body(
        self, module: ModuleInfo, body: Sequence[ast.stmt], *, public: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                yield from self._check_body(
                    module,
                    stmt.body,
                    public=public and not stmt.name.startswith("_"),
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                is_public = public and not stmt.name.startswith("_")
                if is_public:
                    yield from self._check_function(module, stmt)
                # Nested defs inside functions are implementation detail.

    def _raised_names(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        names: set[str] = set()
        for node in _walk_shallow(fn.body):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = _dotted_name(node.exc.func)
                if name:
                    names.add(name.split(".")[-1])
        return names - self._IGNORED

    def _check_function(
        self, module: ModuleInfo, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        raised = self._raised_names(fn)
        if not raised:
            return
        doc = ast.get_docstring(fn) or ""
        if not doc:
            yield self.finding(
                module,
                fn.lineno,
                f"{fn.name}() raises {sorted(raised)} but has no docstring",
            )
            return
        missing = sorted(name for name in raised if name not in doc)
        if missing:
            yield self.finding(
                module,
                fn.lineno,
                f"{fn.name}() raises {missing} but its docstring never "
                f"names {'it' if len(missing) == 1 else 'them'}",
            )


#: The full pack, in id order.
PROJECT_RULES: tuple[Rule, ...] = (
    BlockingCallInAsyncRule(),
    RawDtypeRule(),
    GlobalRandomRule(),
    FaultPointConsistencyRule(),
    MetricVocabularyRule(),
    LockDisciplineRule(),
    DocumentedRaisesRule(),
)


def all_rules() -> tuple[Rule, ...]:
    """The project rule pack (fresh references, stable ids)."""
    return PROJECT_RULES
