"""AST-based project linter: repo-specific rules ruff cannot express.

``python -m repro.analysis.lint src/`` walks the given files or
directories, parses every ``*.py`` with the stdlib :mod:`ast`, and
enforces the invariants PRs 1-6 established by hand and review alone:

``rng-discipline``
    No calls to the legacy global NumPy RNG (``np.random.seed``,
    ``np.random.random``, ...).  All randomness must flow through
    ``np.random.default_rng`` / ``repro.pipeline.rng_for_key`` so
    results stay deterministic under threading and batching.
``bare-assert``
    No ``assert`` statements in library code: they vanish under
    ``python -O``, so invariants must raise real exceptions (PRs 2-5
    converted these one by one; this rule freezes the invariant).
``atomic-write``
    No ``open(path, "w")`` writes that are not part of a tmp +
    ``os.replace`` publish in the same function — an interrupted
    writer must never leave a truncated file.  Route writes through
    :mod:`repro.analysis.atomic_io`.
``mutable-default``
    No mutable default arguments (lists/dicts/sets evaluated once at
    definition time and shared across calls).
``lock-discipline``
    A module-level mutable container mutated from more than one
    function needs a ``threading.Lock``/``RLock`` somewhere in the
    module — the pipeline's worker threads share module state.
``columnar-discipline``
    No per-node DAG traversal (``.topological()``/``.nodes()``) inside
    ``src/repro/optimizers/`` outside functions named ``*_reference``:
    hot pass code must go through the columnar
    :class:`repro.circuits.dag_table.DAGTable` kernels; the per-node
    loops survive only as the byte-identical reference oracles.

Suppression: append ``# repro-lint: disable=<rule>[,<rule>...]`` (or
``disable=all``) to the offending line.

Output is human-readable by default or JSON with ``--format json``;
the exit code is 0 when clean, 1 with findings, 2 on usage errors.
Only the stdlib is used, so the linter runs anywhere the repo does.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from dataclasses import dataclass

#: Rule catalog: id -> one-line description (shown by ``--list-rules``).
RULES: dict[str, str] = {
    "rng-discipline": (
        "legacy np.random.<fn> global-RNG call; use "
        "np.random.default_rng / rng_for_key"
    ),
    "bare-assert": (
        "assert in library code (stripped under python -O); raise a "
        "real exception"
    ),
    "atomic-write": (
        "open(path, 'w') without os.replace in the same function; use "
        "repro.analysis.atomic_io"
    ),
    "mutable-default": (
        "mutable default argument (shared across calls); default to "
        "None and create inside"
    ),
    "lock-discipline": (
        "module-level mutable container mutated from multiple "
        "functions without a threading.Lock in the module"
    ),
    "columnar-discipline": (
        "per-node DAG traversal in repro.optimizers outside a "
        "*_reference function; use the columnar DAGTable kernels"
    ),
}

_RNG_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator",
     "PCG64", "Philox", "MT19937"}
)
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "OrderedDict", "defaultdict", "deque",
     "Counter", "WeakKeyDictionary", "WeakValueDictionary"}
)
_MUTATING_METHODS = frozenset(
    {"append", "appendleft", "extend", "insert", "add", "update",
     "pop", "popitem", "popleft", "clear", "setdefault", "remove",
     "discard", "move_to_end"}
)
_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([\w\-, ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    """A value that creates a fresh mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name is None:
            return False
        return name.rsplit(".", 1)[-1] in _MUTABLE_FACTORIES
    return False


# -- individual rules -------------------------------------------------------

def _check_rng(tree: ast.AST, path: str) -> list[Finding]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        if len(parts) == 3 and parts[0] in ("np", "numpy") \
                and parts[1] == "random" and parts[2] not in _RNG_ALLOWED:
            out.append(Finding(
                path, node.lineno, node.col_offset, "rng-discipline",
                f"call to legacy global RNG {dotted}(); use "
                "np.random.default_rng (or rng_for_key) instead",
            ))
    return out


def _check_asserts(tree: ast.AST, path: str) -> list[Finding]:
    return [
        Finding(
            path, node.lineno, node.col_offset, "bare-assert",
            "assert statement in library code; raise "
            "ValueError/RuntimeError so the check survives python -O",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


def _open_write_mode(node: ast.Call) -> bool:
    """Is this an ``open(...)`` call with a write mode?"""
    if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and mode.value.startswith("w")
    )


def _check_atomic_writes(tree: ast.AST, path: str) -> list[Finding]:
    out = []

    def scan_scope(scope_body: list[ast.stmt]) -> None:
        # One scope = one function (or the module top level).  A write
        # is atomic iff the same scope publishes it with os.replace;
        # nested functions are their own scopes.
        opens: list[ast.Call] = []
        has_replace = False
        stack: list[ast.AST] = list(scope_body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan_scope(node.body)
                continue
            if isinstance(node, ast.Call):
                if _open_write_mode(node):
                    opens.append(node)
                elif _dotted_name(node.func) == "os.replace":
                    has_replace = True
            stack.extend(ast.iter_child_nodes(node))
        if not has_replace:
            for call in opens:
                out.append(Finding(
                    path, call.lineno, call.col_offset, "atomic-write",
                    "write-mode open() without os.replace in the same "
                    "function; an interrupted run leaves a truncated "
                    "file — use repro.analysis.atomic_io",
                ))

    scan_scope(tree.body if isinstance(tree, ast.Module) else [])
    return out


def _check_mutable_defaults(tree: ast.AST, path: str) -> list[Finding]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            if _is_mutable_value(default):
                label = getattr(node, "name", "<lambda>")
                out.append(Finding(
                    path, default.lineno, default.col_offset,
                    "mutable-default",
                    f"mutable default argument in {label}(); evaluated "
                    "once and shared across calls — default to None",
                ))
    return out


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally in a function (params + bare assignments)."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            tgt = node.target
            if isinstance(tgt, ast.Name):
                names.add(tgt.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not fn:
            names.add(node.name)
    return names


def _mutated_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Container names this function mutates (method call / item store)."""
    mutated: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.attr in _MUTATING_METHODS:
            mutated.add(node.func.value.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for tgt in targets:
                if isinstance(tgt, ast.Subscript) \
                        and isinstance(tgt.value, ast.Name):
                    mutated.add(tgt.value.id)
        elif isinstance(node, ast.Delete):
            for tgt in node.targets:
                if isinstance(tgt, ast.Subscript) \
                        and isinstance(tgt.value, ast.Name):
                    mutated.add(tgt.value.id)
    return mutated


def _check_lock_discipline(tree: ast.AST, path: str) -> list[Finding]:
    if not isinstance(tree, ast.Module):
        return []
    # Module-level mutable containers by name -> definition site.
    containers: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and _is_mutable_value(stmt.value):
            containers[stmt.targets[0].id] = stmt
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None \
                and _is_mutable_value(stmt.value):
            containers[stmt.target.id] = stmt
    if not containers:
        return []
    has_lock = any(
        isinstance(node, ast.Call)
        and _dotted_name(node.func) in ("threading.Lock", "threading.RLock")
        for node in ast.walk(tree)
    )
    if has_lock:
        return []
    # Which functions (anywhere in the module) mutate which container,
    # ignoring functions that shadow the name locally.
    mutators: dict[str, list[str]] = {name: [] for name in containers}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        locals_ = _local_names(node)
        for name in _mutated_names(node):
            if name in containers and name not in locals_:
                mutators[name].append(node.name)
    out = []
    for name, fns in mutators.items():
        if len(set(fns)) >= 2:
            stmt = containers[name]
            out.append(Finding(
                path, stmt.lineno, stmt.col_offset, "lock-discipline",
                f"module-level mutable {name!r} is mutated from "
                f"{len(set(fns))} functions ({', '.join(sorted(set(fns)))}) "
                "but the module has no threading.Lock",
            ))
    return out


#: Per-node traversal surface of :class:`CircuitDAG` that hot pass
#: code must not touch (the columnar kernels replace it).
_PER_NODE_CALLS = frozenset({"topological", "nodes"})


def _check_columnar_discipline(tree: ast.AST, path: str) -> list[Finding]:
    norm = path.replace(os.sep, "/")
    if "repro/optimizers/" not in norm:
        return []
    out = []

    def scan(node: ast.AST, in_reference: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Helpers nested inside a reference oracle inherit its
                # exemption.
                scan(child, in_reference
                     or child.name.endswith("_reference"))
                continue
            if (
                not in_reference
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _PER_NODE_CALLS
            ):
                out.append(Finding(
                    path, child.lineno, child.col_offset,
                    "columnar-discipline",
                    f"per-node DAG traversal .{child.func.attr}() in the "
                    "optimizers package; hot pass code must use the "
                    "columnar DAGTable kernels (per-node loops are "
                    "reserved for *_reference oracles)",
                ))
            scan(child, in_reference)

    scan(tree, False)
    return out


_RULE_CHECKS = {
    "rng-discipline": _check_rng,
    "bare-assert": _check_asserts,
    "atomic-write": _check_atomic_writes,
    "mutable-default": _check_mutable_defaults,
    "lock-discipline": _check_lock_discipline,
    "columnar-discipline": _check_columnar_discipline,
}


# -- driver -----------------------------------------------------------------

def _suppressed_rules(line_text: str) -> frozenset[str]:
    match = _DISABLE_RE.search(line_text)
    if not match:
        return frozenset()
    return frozenset(r.strip() for r in match.group(1).split(",") if r.strip())


def lint_source(
    text: str, path: str, rules: set[str] | None = None
) -> list[Finding]:
    """Lint one file's source text; returns surviving findings."""
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [Finding(
            path, exc.lineno or 1, exc.offset or 0, "syntax-error",
            f"file does not parse: {exc.msg}",
        )]
    lines = text.splitlines()
    findings: list[Finding] = []
    for rule, check in _RULE_CHECKS.items():
        if rules is not None and rule not in rules:
            continue
        findings.extend(check(tree, path))
    kept = []
    for f in findings:
        line_text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        disabled = _suppressed_rules(line_text)
        if f.rule in disabled or "all" in disabled:
            continue
        kept.append(f)
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.rule))


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith(".")
                )
                out.extend(
                    os.path.join(root, f) for f in sorted(files)
                    if f.endswith(".py")
                )
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return out


def lint_paths(
    paths: list[str], rules: set[str] | None = None
) -> list[Finding]:
    """Lint every python file under ``paths``."""
    findings: list[Finding] = []
    for filename in iter_python_files(paths):
        with open(filename, encoding="utf-8") as f:
            text = f.read()
        findings.extend(lint_source(text, filename, rules))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repo-specific AST linter (see module docstring)",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human")
    parser.add_argument("--rule", action="append", dest="rules",
                        metavar="RULE", choices=sorted(RULES),
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:18s} {desc}")
        return 0

    try:
        findings = lint_paths(args.paths,
                              set(args.rules) if args.rules else None)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps({
            "version": 1,
            "findings": [vars(f) for f in findings],
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        n_files = len(iter_python_files(args.paths))
        print(f"{len(findings)} finding(s) in {n_files} file(s); "
              f"{len(RULES)} rules active"
              if not args.rules else
              f"{len(findings)} finding(s) in {n_files} file(s); "
              f"rules: {', '.join(sorted(set(args.rules)))}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
