"""`src/` carries only what the commands and the benchmark run: every
function and class defined under `src/advseq` is referenced from `src/` or
`bench/` outside its own body, and not only from code that is itself
unreferenced."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "advseq")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse_tree(top: str) -> dict[str, ast.Module]:
    trees = {}
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as fh:
                    trees[path] = ast.parse(fh.read(), filename=path)
    return trees


def unreferenced_names(src_trees: dict[str, ast.Module],
                       user_trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` of every non-dunder def in `src_trees` that no Name or
    Attribute node of `src_trees` or `user_trees` reaches, outside the def's
    own body and outside the bodies of defs already found unreferenced,
    repeated until nothing new is found."""
    defs = []   # (qualified name, name, path, first line, last line)

    def collect(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                label = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs.append((label, child.name, path, first, child.end_lineno))
                collect(child, label, path)
            else:
                collect(child, prefix, path)

    for path, tree in src_trees.items():
        collect(tree, os.path.splitext(os.path.basename(path))[0], path)
    refs: dict[str, list[tuple[str, int]]] = {}
    for path, tree in {**src_trees, **user_trees}.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))

    def inside(ref: tuple[str, int], d: tuple) -> bool:
        return ref[0] == d[2] and d[3] <= ref[1] <= d[4]

    dead: list[tuple] = []
    while True:
        found = [d for d in defs if d not in dead
                 and not any(not inside(r, d) and not any(inside(r, x) for x in dead)
                             for r in refs.get(d[1], []))]
        if not found:
            return sorted(d[0] for d in dead)
        dead += found


def test_every_src_name_is_reached_from_src_or_bench():
    src = parse_tree(PACKAGE)
    assert src, PACKAGE
    assert unreferenced_names(src, parse_tree(os.path.join(ROOT, "bench"))) == []


def test_the_walk_follows_chains_and_skips_own_bodies():
    src = {"m.py": ast.parse(
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def dead():\n    return chained()\n"
        "def chained():\n    return chained()\n"
        "class Shell:\n    def __len__(self):\n        return 0\n"
        "    def unused(self):\n        return 0\n")}
    user = {"b.py": ast.parse("import m\nm.used()\nm.Shell()\n")}
    assert unreferenced_names(src, user) == ["m.Shell.unused", "m.chained", "m.dead"]
