"""Structural checks on ``src/`` read from source text, never by import.

Two things a green functional suite does not notice:

* the paper's §3.1 decoupling — the mainchain (MCP) and the cross-chain
  transfer protocol (CCTP) know nothing about any sidechain construction
  (SCP), which docs/PROTOCOL.md asserts in prose;
* the inventory ROADMAP tracks by hand (lines, import-time environment
  switches, broad ``except`` sites, deprecated shims, superseded modules,
  the absent Latus snapshot sections, the one call that empties the log).
  Each number is a ceiling: a PR may lower it and then lowers the constant
  here, a PR that raises it has to say why in the same diff.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FILES = sorted(SRC.rglob("*.py"))
#: The pipeline benchmark's tracer: it wraps ``src/`` entry points by name.
TRACER = SRC.parent / "benchmarks" / "pipeline" / "trace.py"

#: ``find src -name '*.py' | xargs wc -l`` after the store started deciding how
#: a node keeps its MST and when it syncs: no ``paged_mst`` or ``fsync``
#: switch, no memory page backing, no named page segment (17,060 before).
MAX_SRC_LINES = 16_887
#: None: ``observability.disable()`` is the only switch.
MAX_ENVIRON_READS = 0
#: None: every handler names the errors it expects (the last three were the
#: process pool's boundary sites, deleted with the pool).
MAX_BROAD_EXCEPTS = 0

#: What ``LatusNode`` reads off its blocks and anchors and must not store.
LATUS_DERIVED = {"epoch", "certificates", "last_referenced_mc_height", "skipped_slots"}

#: Block rules live in ``LatusNode.receive_block`` only: the auditor feeds
#: blocks to a checking node and must not import what a second copy needs.
AUDIT_FORBIDDEN = {
    "LatusState",
    "LeaderSchedule",
    "StakeDistribution",
    "verify_mc_ref",
    "index_transition",
}

#: The per-node storage switches: the store a node has decides how it keeps
#: its MST and when it syncs, so none of these names may come back.
STORAGE_SWITCHES = (
    "MemoryPageBacking",
    "FSYNC_POLICIES",
    "fsync_policy",
    "PAGE_SEGMENT_NAME",
    "_rehouse_state",
)

#: Substrate layers and the construction layers they must not know about.
SUBSTRATE = ("repro.core", "repro.mainchain")
CONSTRUCTIONS = ("repro.latus", "repro.federated", "repro.scenarios")


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def within(name: str, packages: tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


@pytest.fixture(scope="module")
def trees() -> dict[pathlib.Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in FILES}


def imported_modules(path: pathlib.Path, tree: ast.Module) -> list[tuple[int, str]]:
    """Every module an import statement names, at any nesting depth."""
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[: len(package) - node.level + 1]
                base = ".".join([*anchor, base] if base else anchor)
            found.append((node.lineno, base))
            # `from repro import latus` names the submodule in the alias
            found.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
    return found


class TestLayering:
    def test_substrate_never_imports_a_sidechain_construction(self, trees):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} imports {target}"
            for path, tree in trees.items()
            if within(module_name(path), SUBSTRATE)
            for lineno, target in imported_modules(path, tree)
            if within(target, CONSTRUCTIONS)
        ]
        assert not offenders, "\n".join(offenders)

    def test_the_check_sees_function_level_imports(self):
        tree = ast.parse("def f():\n    from repro.latus import node\n")
        path = SRC / "repro" / "core" / "probe.py"
        assert (2, "repro.latus") in imported_modules(path, tree)


def pairing_loops(tree: ast.Module) -> list[tuple[str, int]]:
    """``(function, line)`` of every ``range(0, len(…) - 1, 2)`` pairing loop."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(
                (func.name, node.lineno)
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and re.fullmatch(r"range\(0, len\(.+\) - 1, 2\)", ast.unparse(node))
            )
    return found


class TestOneMergeTree:
    def test_the_merge_tree_is_written_once(self, trees):
        """Pairing with an odd-tail carry is ``merge_plan``'s; the rest read it."""
        loops = [
            (f"{path.relative_to(SRC)}", name, lineno)
            for path, tree in trees.items()
            for name, lineno in pairing_loops(tree)
        ]
        assert [name for _, name, _ in loops] == ["merge_plan"], loops

    def test_the_check_sees_nested_loops(self):
        tree = ast.parse(
            "def f(xs):\n    def g():\n        return range(0, len(xs) - 1, 2)\n"
        )
        assert pairing_loops(tree) == [("f", 3), ("g", 3)]


def self_attributes_assigned(cls: ast.ClassDef) -> set[str]:
    """``self.<name>`` targets of every assignment in ``cls``, unpacking included."""
    targets = []
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
    names = set()
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            names.add(target.attr)
    return names


def latus_node_class(trees) -> ast.ClassDef:
    tree = trees[SRC / "repro" / "latus" / "node.py"]
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LatusNode"]
    return node


class TestLatusNodeStoresNoCopy:
    def test_derived_fields_are_never_assigned(self, trees):
        stored = self_attributes_assigned(latus_node_class(trees))
        assert "anchors" in stored
        assert not stored & LATUS_DERIVED, stored & LATUS_DERIVED

    def test_the_check_sees_unpacking_and_annotations(self):
        tree = ast.parse(
            "class C:\n"
            "    def f(self):\n"
            "        self.a, (self.b, *self.c) = 1, (2, 3)\n"
            "        self.d: int = 4\n"
            "        self.e += 5\n"
        )
        assert self_attributes_assigned(tree.body[0]) == {"a", "b", "c", "d", "e"}


def callers(cls: ast.ClassDef, name: str) -> set[str]:
    """Methods of ``cls`` that call ``name``, as a function or as a method."""
    return {
        method.name
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


class TestOneAdoptionStep:
    def test_blocks_are_adopted_in_one_place(self, trees):
        """Forge, receive, rollback, restore and WAL replay all end in
        ``_append_block``; only forging applies transitions one by one,
        everything else takes a block whole through ``apply_block``."""
        node = latus_node_class(trees)
        assert callers(node, "index_transition") == {"_append_block"}
        assert callers(node, "apply") == {"_forge_block"}

    def test_the_check_sees_functions_and_methods(self):
        tree = ast.parse(
            "class C:\n"
            "    def f(self):\n        g(1)\n"
            "    def h(self, s):\n        s.state.g(2)\n"
            "    def k(self):\n        s.g_all(3)\n"
        )
        assert callers(tree.body[0], "g") == {"f", "h"}


def call_sites(tree: ast.Module, name: str) -> list[str]:
    """Where ``name(...)`` is called, plain or as ``x.name(...)``: the
    enclosing ``Class.method`` or function (nested scopes joined by dots),
    ``<module>`` at the top level."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


class TestTheStoreDecidesTheNodeStore:
    def test_a_paged_store_is_built_in_one_place(self, trees):
        """A Latus node over a ``FileStore`` pages and every other node
        keeps the dict store: ``LatusNode._make_node_store`` decides."""
        sites = [
            f"{module_name(path)}:{scope}"
            for path, tree in trees.items()
            for scope in call_sites(tree, "PagedNodeStore")
        ]
        assert sites == ["repro.latus.node:LatusNode._make_node_store"]

    def test_the_check_sees_nested_scopes_and_the_module(self):
        tree = ast.parse(
            "x = P()\n"
            "class C:\n"
            "    def f(self):\n"
            "        def g():\n            return m.P(1)\n"
            "        return P.__new__(P)\n"
        )
        assert call_sites(tree, "P") == ["<module>", "C.f.g"]


#: The proof checks of ``repro.snark.proving``.
PROOF_CHECKS = ("verify", "verify_many")


def proof_checks(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """``(function, call)`` of every ``verify``/``verify_many`` call, plain
    or as ``proving.<name>``; a method is named ``Class.method``, and a call
    in a nested function counts for the function around it."""
    functions = [
        (f"{cls.name}.{func.name}", func)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for func in cls.body
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    ] + [
        (func.name, func)
        for func in tree.body
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return [
        (name, node)
        for name, func in functions
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id in PROOF_CHECKS
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in PROOF_CHECKS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "proving"
        )
    ]


class TestOneCertificateCheck:
    def test_a_certificate_proof_is_verified_in_one_place(self, trees):
        """On the mainchain side a proof is verified only at rule 4 of
        ``CctpState.process_certificate``, under the sidechain's
        ``wcert_vk``: no pre-verification pass, no injected verdict."""
        sites = [
            (module_name(path), name, ast.unparse(call.args[0]))
            for path, tree in trees.items()
            if within(module_name(path), SUBSTRATE)
            for name, call in proof_checks(tree)
        ]
        assert sites == [
            ("repro.core.cctp", "CctpState.process_certificate", "entry.config.wcert_vk")
        ]

    def test_no_block_path_batches_or_injects_verdicts(self, trees):
        batched = [
            f"{path.relative_to(SRC)}:{call.lineno}"
            for path, tree in trees.items()
            for _, call in proof_checks(tree)
            if ast.unparse(call.func).endswith("verify_many")
        ]
        assert not batched, batched
        injected = [str(path.relative_to(SRC)) for path in FILES if "proof_valid" in path.read_text()]
        assert not injected, injected

    def test_the_check_sees_methods_nested_calls_and_plain_names(self):
        tree = ast.parse(
            "class C:\n"
            "    def f(self):\n        def g():\n            proving.verify(vk, a, p)\n"
            "def h():\n    verify_many(jobs)\n"
            "def k(s):\n    s.proving.verify(vk)\n    verify_input_signatures(tx)\n"
        )
        assert [(name, ast.unparse(call)) for name, call in proof_checks(tree)] == [
            ("C.f", "proving.verify(vk, a, p)"),
            ("h", "verify_many(jobs)"),
        ]


def log_clearing_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """``(function, line)`` of every call that empties a store's log:
    ``<x>._wal.clear()``, ``open(<x>._wal_path, "w…")``, or a
    ``write_bytes``/``unlink`` of ``<x>._wal_path``.  Cutting a torn tail
    (``truncate`` on an ``"r+b"`` handle) drops no whole record and is not
    one."""

    def attr(node, name: str) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == name

    def clears(call: ast.Call) -> bool:
        func = call.func
        if attr(func, "clear") and attr(func.value, "_wal"):
            return True
        if attr(func, "write_bytes") or attr(func, "unlink"):
            return attr(func.value, "_wal_path")
        if isinstance(func, ast.Name) and func.id == "open" and call.args:
            mode = call.args[1] if len(call.args) > 1 else None
            return (
                attr(call.args[0], "_wal_path")
                and isinstance(mode, ast.Constant)
                and str(mode.value).startswith("w")
            )
        return False

    return [
        (func.name, node.lineno)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and clears(node)
    ]


class TestTheLogOnlyGrows:
    def test_only_reset_empties_the_log(self, trees):
        """The log is the one archive of a node's history: a snapshot
        covers its records and never drops them; only ``reset()`` does."""
        sites = [
            (path.relative_to(SRC).as_posix(), name)
            for path, tree in trees.items()
            for name, _ in log_clearing_calls(tree)
        ]
        assert sorted(sites) == [
            ("repro/storage/filestore.py", "reset"),
            ("repro/storage/store.py", "reset"),
        ]

    def test_the_check_sees_each_form(self):
        tree = ast.parse(
            "def write_snapshot(self):\n    self._wal.clear()\n"
            "def _truncate(self):\n    with open(self._wal_path, 'wb'):\n        pass\n"
            "def _drop(self):\n    self._wal_path.unlink()\n"
            "def _repair(self):\n    with open(self._wal_path, 'r+b') as fh:\n"
            "        fh.truncate(5)\n    self._staged.clear()\n"
        )
        assert [name for name, _ in log_clearing_calls(tree)] == [
            "write_snapshot",
            "_truncate",
            "_drop",
        ]


def bound_names(body: list[ast.stmt]) -> set[str]:
    """Names a module or class body binds: definitions, assignments, imports."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def resolves(tree: ast.Module, attribute: str) -> bool:
    """True when ``attribute`` is what the tracer's ``install`` looks up:
    ``Class.method`` in the class's own body (its ``__dict__``), else a
    module-level name."""
    if "." not in attribute:
        return attribute in bound_names(tree.body)
    class_name, method = attribute.split(".")
    return any(
        isinstance(node, ast.ClassDef)
        and node.name == class_name
        and method in bound_names(node.body)
        for node in tree.body
    )


def module_path(module: str) -> pathlib.Path:
    base = SRC.joinpath(*module.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


class TestTracerEntryPoints:
    def test_every_traced_name_exists(self, trees):
        """Each ``ENTRY_POINTS`` row of the pipeline tracer names something
        ``src/`` still defines, so ``--traced`` cannot break silently."""
        tracer = ast.parse(TRACER.read_text())
        (table,) = [
            node.value
            for node in tracer.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]
        ]
        rows = [(ast.literal_eval(r.elts[0]), ast.literal_eval(r.elts[1])) for r in table.elts]
        assert len(rows) > 40
        missing = [
            f"{module}.{attribute}"
            for module, attribute in rows
            if not resolves(trees.get(module_path(module), ast.Module([], [])), attribute)
        ]
        assert not missing, missing

    def test_the_check_sees_class_bodies_and_imports(self):
        tree = ast.parse(
            "from x import f as g\n"
            "class Base:\n    def m(self): ...\n"
            "class C(Base):\n    n = 1\n"
        )
        assert resolves(tree, "g") and resolves(tree, "Base.m") and resolves(tree, "C.n")
        assert not resolves(tree, "f") and not resolves(tree, "C.m")


class TestInventoryRatchet:
    def test_src_line_count(self):
        lines = sum(path.read_bytes().count(b"\n") for path in FILES)
        assert lines <= MAX_SRC_LINES, f"src/ grew to {lines} lines"

    def test_environment_reads(self, trees):
        reads = [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ]
        assert len(reads) <= MAX_ENVIRON_READS, reads

    def test_broad_except_sites(self, trees):
        def broad(handler: ast.ExceptHandler) -> bool:
            caught = handler.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            return caught is None or any(
                isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
                for n in names
            )

        sites = [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and broad(node)
        ]
        assert len(sites) <= MAX_BROAD_EXCEPTS, sites

    def test_no_deprecated_surface(self):
        mentions = [
            str(path.relative_to(SRC))
            for path in FILES
            if "DeprecationWarning" in path.read_text()
        ]
        assert not mentions, mentions

    def test_superseded_modules_stay_deleted(self, trees):
        assert not [p for p in FILES if p.stem in ("proof_market", "pool")]
        # the field has one implementation, plain CPython integers, and
        # proving runs in-process: no second, process-pool path
        refused = ("numpy", "gmpy2", "concurrent", "multiprocessing", "pickle")
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} imports {target}"
            for path, tree in trees.items()
            for lineno, target in imported_modules(path, tree)
            if target.split(".")[0] in refused
        ]
        assert not offenders, offenders

    def test_storage_switches_stay_deleted(self):
        mentions = [
            f"{path.relative_to(SRC)} names {name}"
            for path in FILES
            for name in STORAGE_SWITCHES
            if re.search(rf"\b{name}\b", path.read_text())
        ]
        assert not mentions, mentions

    def test_latus_snapshot_sections(self, trees):
        """A Latus node writes no snapshot: the log alone holds it (each
        anchor record carries its certified epoch's state), so no module
        names a ``latus/...`` section.  That a durable run leaves no
        snapshot is ``tests/test_storage.py``'s to check, by running one."""
        names = {
            node.value
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"latus/\w+", node.value)
        }
        assert not names, names

    def test_auditor_keeps_no_copy_of_the_block_rules(self, trees):
        tree = trees[SRC / "repro" / "latus" / "audit.py"]
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not imported & AUDIT_FORBIDDEN, imported & AUDIT_FORBIDDEN
