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

#: ``find src -name '*.py' | xargs wc -l`` after the prover began reading
#: permutations off the MiMC memo and the stats dataclasses dumped themselves
#: with ``asdict`` (18,760 before).
MAX_SRC_LINES = 18_745
#: REPRO_OBSERVABILITY only.
MAX_ENVIRON_READS = 1
#: 9 before the mainchain recovery's two went with ``Blockchain``'s copy of
#: it (10 before ``FilePageBacking.scan`` caught ``DecodeError`` instead).
MAX_BROAD_EXCEPTS = 7

#: Every Latus snapshot section: what the blocks cannot give.  The UTXO
#: index, synced MC heights, consensus seeds and stakes, the epoch ledger and
#: the certificate list are re-derived from blocks and anchors on restore.
LATUS_SECTIONS = {
    "latus/meta",
    "latus/state",
    "latus/state_pages",
    "latus/blocks",
    "latus/anchors",
    "latus/submitted",
}

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
