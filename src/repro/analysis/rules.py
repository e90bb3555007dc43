"""The project-invariant rule pack (REPRO001..REPRO006).

Each rule codifies an invariant this repo already paid to learn — the
docstring of every rule names the PR that motivated it.  Rules are
deliberately heuristic: they run on the AST only, favour few false
positives over perfect recall, and every deliberate exception is an
inline ``# repro: ignore[RULE]`` with a trailing reason (the pragma is
the audit trail).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .astutil import ImportMap, dotted_name, resolve_call_name, terminal_name
from .engine import Finding, ModuleRule, SourceModule, module_rule

__all__ = ["DETERMINISM_PATHS", "RESPONSE_PATHS"]

#: Modules whose outputs are fingerprinted, cached, or replayed —
#: byte-stable behaviour is part of their contract (PRs 1/2/6/8).
DETERMINISM_PATHS = (
    "repro/citests/",
    "repro/core/",
    "repro/engine/fingerprint",
    "repro/engine/workload",
)

#: Modules that construct protocol responses (PR 4 uniform schema).
RESPONSE_PATHS = ("repro/engine/",)


def _in_paths(module: SourceModule, prefixes: tuple[str, ...]) -> bool:
    return module.relpath.startswith(prefixes)


@module_rule
class ShmUnlinkRule(ModuleRule):
    """REPRO001 — every ``SharedMemory(create=True)`` needs owned cleanup.

    Motivated by PR 3: segments that outlive their creator leak
    ``/dev/shm`` until reboot, and the resource-tracker workaround means
    nobody else will unlink them either.  A module that creates segments
    must both call ``.unlink()`` somewhere and register a
    ``weakref.finalize`` backstop so the unlink survives abandoned owners.
    """

    rule_id = "REPRO001"
    severity = "error"
    title = "SharedMemory(create=True) without unlink + weakref.finalize backstop"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        creates: list[ast.Call] = []
        has_unlink = False
        has_finalize = False
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                if node.attr == "unlink":
                    has_unlink = True
                elif node.attr == "finalize":
                    has_finalize = True
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node, imports) or ""
            if not name.endswith("SharedMemory"):
                continue
            for kw in node.keywords:
                if kw.arg == "create" and isinstance(kw.value, ast.Constant) and kw.value.value:
                    creates.append(node)
        if creates and not (has_unlink and has_finalize):
            missing = []
            if not has_unlink:
                missing.append("an .unlink() call")
            if not has_finalize:
                missing.append("a weakref.finalize backstop")
            for call in creates:
                yield self.finding(
                    module,
                    call,
                    "SharedMemory(create=True) but the module has no "
                    + " or ".join(missing)
                    + "; tie the unlink to shutdown/close with a weakref.finalize backstop",
                )


#: (canonical dotted prefix, allowed tails) — calls matching a prefix are
#: nondeterministic unless the next segment is in the allow set.
_SEEDED_FACTORIES = {"default_rng", "Generator", "SeedSequence", "Random", "bit_generator"}
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid4",
    "uuid.uuid1",
    "secrets.token_bytes",
    "secrets.token_hex",
}


@module_rule
class DeterminismRule(ModuleRule):
    """REPRO002 — no unseeded randomness or wall-clock in deterministic paths.

    Motivated by PRs 2/6/8: kernels are compared bit-for-bit against the
    looped oracle, responses replay byte-identical from the store, and
    golden traces must regenerate exactly.  One ``time.time()`` or
    ``np.random.rand()`` in those paths silently breaks all three
    contracts.  Seeded constructors (``random.Random(seed)``,
    ``np.random.default_rng(seed)``) are the sanctioned sources.
    """

    rule_id = "REPRO002"
    severity = "error"
    title = "unseeded randomness / wall-clock read in a fingerprinted path"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not _in_paths(module, DETERMINISM_PATHS):
            return
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node, imports)
            if name is None:
                continue
            if name in _WALL_CLOCK:
                yield self.finding(
                    module, node, f"wall-clock/entropy read {name}() in a deterministic path"
                )
                continue
            for prefix in ("numpy.random.", "random."):
                if name.startswith(prefix):
                    tail = name[len(prefix):].split(".")[0]
                    if tail not in _SEEDED_FACTORIES:
                        yield self.finding(
                            module,
                            node,
                            f"global-state randomness {name}() in a deterministic path; "
                            "thread an explicit seeded Random/default_rng through instead",
                        )
                    break


@module_rule
class ResponseSchemaRule(ModuleRule):
    """REPRO003 — protocol responses carry both ``result`` and ``error``.

    Motivated by PR 4: every response sets both keys with exactly one
    null, so clients can branch on one field without ``KeyError`` races
    and manifests can count errors by key presence.  A dict literal that
    sets one key without the other is a schema drift in the making.
    """

    rule_id = "REPRO003"
    severity = "error"
    title = "response dict sets only one of 'result'/'error'"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not _in_paths(module, RESPONSE_PATHS):
            return
        for node in ast.walk(module.tree):
            keys: set[str] = set()
            if isinstance(node, ast.Dict):
                keys = {
                    k.value for k in node.keys if isinstance(k, ast.Constant)
                    and isinstance(k.value, str)
                }
            elif isinstance(node, ast.Call) and dotted_name(node.func) == "dict":
                keys = {kw.arg for kw in node.keywords if kw.arg}
            present = keys & {"result", "error"}
            if len(present) == 1:
                missing = ({"result", "error"} - present).pop()
                yield self.finding(
                    module,
                    node,
                    f"response dict sets {present.pop()!r} without {missing!r}; "
                    "the protocol schema requires both keys with exactly one null",
                )


_HANDLE_MARKERS = ("sqlite3.Connection", "SharedMemory")


@module_rule
class PickleSeverRule(ModuleRule):
    """REPRO004 — classes holding sqlite/shm handles define ``__getstate__``.

    Motivated by PRs 6/7: a live ``sqlite3.Connection`` or
    ``SharedMemory`` mapping silently rides along when an object is
    pickled to a worker (or fork-inherited), and either crashes the
    child or double-closes the parent's handle.  The store, spill tier,
    stats cache, and kernel arena all sever those members in
    ``__getstate__``; any class that opens such a handle must do the same
    (or define ``__reduce__``, or refuse pickling outright).
    """

    rule_id = "REPRO004"
    severity = "error"
    title = "sqlite/shm handle holder without __getstate__"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            reason = self._holds_handle(node, imports)
            if reason is None:
                continue
            defined = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if defined & {"__getstate__", "__reduce__", "__reduce_ex__"}:
                continue
            yield self.finding(
                module,
                node,
                f"class {node.name} {reason} but defines no __getstate__/__reduce__; "
                "sever the handle (or raise) so pickling/fork cannot ship it live",
            )

    @staticmethod
    def _holds_handle(cls: ast.ClassDef, imports: ImportMap) -> str | None:
        for node in ast.walk(cls):
            if isinstance(node, ast.Call):
                name = resolve_call_name(node, imports) or ""
                if name == "sqlite3.connect":
                    return "opens a sqlite3 connection"
                if name.endswith("SharedMemory"):
                    return "opens a SharedMemory mapping"
            if isinstance(node, (ast.AnnAssign, ast.arg)) and node.annotation is not None:
                ann = ast.unparse(node.annotation)
                for marker in _HANDLE_MARKERS:
                    if marker in ann:
                        return f"is annotated as holding {marker}"
        return None


@module_rule
class ThreadLifecycleRule(ModuleRule):
    """REPRO005 — every ``threading.Thread`` is daemon or joined.

    Motivated by PRs 5/8: a forgotten non-daemon thread keeps the
    process alive after ``main`` returns — the exact hang the transport
    drain tests exist to catch.  A thread must either be created
    ``daemon=True`` or have a ``.join()`` reachable in the same module.
    """

    rule_id = "REPRO005"
    severity = "error"
    title = "threading.Thread neither daemon nor joined"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        join_targets: set[str] = set()
        loop_aliases: dict[str, str] = {}  # loop var -> iterated name
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "join":
                    target = terminal_name(node.func.value)
                    if target:
                        join_targets.add(target)
            if isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter if isinstance(node, ast.For) else node.iter
                tgt = node.target
                it_name, tgt_name = terminal_name(it), terminal_name(tgt)
                if it_name and tgt_name:
                    loop_aliases[tgt_name] = it_name

        # Joining a loop variable counts as joining the iterated container.
        expanded = set(join_targets)
        for var, container in loop_aliases.items():
            if var in join_targets:
                expanded.add(container)

        for stmt in ast.walk(module.tree):
            assigned: str | None = None
            calls: list[ast.Call] = []
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                assigned = terminal_name(stmt.targets[0])
                calls = [n for n in ast.walk(stmt.value) if isinstance(n, ast.Call)]
            elif isinstance(stmt, ast.Expr):
                calls = [n for n in ast.walk(stmt.value) if isinstance(n, ast.Call)]
            for call in calls:
                if resolve_call_name(call, imports) != "threading.Thread":
                    continue
                if any(kw.arg == "daemon" for kw in call.keywords):
                    continue
                if assigned is not None and assigned in expanded:
                    continue
                yield self.finding(
                    module,
                    call,
                    "threading.Thread is neither daemon=True nor joined in this module; "
                    "a leaked non-daemon thread keeps the process alive at exit",
                )


_BROAD = {"Exception", "BaseException"}
_ACCOUNTING_CALL_FRAGMENTS = ("error", "reject", "warn", "note", "record", "fail", "exception")


@module_rule
class BroadExceptRule(ModuleRule):
    """REPRO006 — broad ``except`` must re-raise, respond, or count.

    Motivated by PRs 4/6: a bare ``except Exception: pass`` swallowed
    store failures until the manifest totals stopped adding up.  A broad
    handler is fine as a *degradation* path — but only when the failure
    is re-raised, turned into a clean error response, or incremented
    into a counter the manifest can audit.
    """

    rule_id = "REPRO006"
    severity = "error"
    title = "broad except swallows the failure without accounting"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._accounts(node):
                continue
            yield self.finding(
                module,
                node,
                "broad except neither re-raises, builds an error response, nor "
                "increments a counter; narrow it or account for the failure",
            )

    @staticmethod
    def _is_broad(type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        names = (
            [terminal_name(e) for e in type_node.elts]
            if isinstance(type_node, ast.Tuple)
            else [terminal_name(type_node)]
        )
        return any(n in _BROAD for n in names)

    @staticmethod
    def _accounts(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            # Referencing the bound exception (``pending.exc = exc``,
            # ``q.put((_FAIL, exc))``, ``str(exc)`` in a response) means
            # the failure is captured for later handling, not swallowed.
            if (
                handler.name
                and isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                target = terminal_name(node.target) or ""
                if target.startswith("n_") or "count" in target or "error" in target:
                    return True
            if isinstance(node, ast.Call):
                name = terminal_name(node.func) or ""
                if any(frag in name.lower() for frag in _ACCOUNTING_CALL_FRAGMENTS):
                    return True
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    tname = terminal_name(tgt) or ""
                    if "error" in tname.lower():
                        return True
        return False
