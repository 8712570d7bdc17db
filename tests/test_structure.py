"""Structural checks on ``src/`` read from source text, never by import.

Two things a green functional suite does not notice:

* the paper's §3.1 decoupling — the mainchain (MCP) and the cross-chain
  transfer protocol (CCTP) know nothing about any sidechain construction
  (SCP), which docs/PROTOCOL.md asserts in prose;
* the inventory ROADMAP tracks by hand (lines, import-time environment
  switches, broad ``except`` sites, deprecated shims, superseded modules,
  the Latus snapshot's section names).
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

#: ``find src -name '*.py' | xargs wc -l`` after the harness became the one
#: way to stand up Latus nodes and the second multi-node deployment went
#: (18,441 before).
MAX_SRC_LINES = 18_188
#: None: ``observability.disable()`` is the only switch.
MAX_ENVIRON_READS = 0
#: ``ProverPool``'s three process-boundary sites (executor start, dispatch,
#: resolve); 4 before the network simulator stopped absorbing handler
#: failures.
MAX_BROAD_EXCEPTS = 3

#: Every Latus snapshot section: what the blocks cannot give.  The UTXO
#: index, synced MC heights and consensus seeds and stakes are re-derived
#: from blocks and anchors on restore; the open epoch, the certificate list
#: and the last MC reference are read off them.
LATUS_SECTIONS = {
    "latus/state",
    "latus/state_pages",
    "latus/blocks",
    "latus/anchors",
    "latus/submitted",
}

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
        assert not [p for p in FILES if p.stem == "proof_market"]
        # the field has one implementation, plain CPython integers
        accelerators = [
            f"{path.relative_to(SRC)}:{lineno} imports {target}"
            for path, tree in trees.items()
            for lineno, target in imported_modules(path, tree)
            if target.split(".")[0] in ("numpy", "gmpy2")
        ]
        assert not accelerators, accelerators

    def test_latus_snapshot_sections(self, trees):
        names = {
            node.value
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"latus/\w+", node.value)
        }
        assert names == LATUS_SECTIONS

    def test_auditor_keeps_no_copy_of_the_block_rules(self, trees):
        tree = trees[SRC / "repro" / "latus" / "audit.py"]
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not imported & AUDIT_FORBIDDEN, imported & AUDIT_FORBIDDEN
