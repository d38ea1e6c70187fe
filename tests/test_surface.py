"""`src/` carries only what the commands and the benchmark run.

Every function and class defined under `src/advseq` is referenced from
`src/` or `bench/` outside its own body, and not only from code that is
itself unreferenced. Every option is set by some caller there too: each
defaulted parameter and each defaulted dataclass field is passed by keyword
or position from a call in `src/` or `bench/` (a `dataclasses.replace` call
sets the fields it names), save the few in `TEST_ONLY` that the invariance
and oracle tests need. And every default is one a command uses: at least
one such call leaves the option out, as a default that every call
overrides is reached only by tests. Operator methods, whose use the walk
cannot see, each name it in `OPERATORS`. The config schema is the one home
of a run's defaults: each key of a section in `config.VIEWS` names a field
of the section's view, which `config.view` fills from it, and no field so
filled has a default of its own. And no module under `src/`, `tests/` or
`bench/` imports a name it never reads. No call to a generator function of
`src/advseq` (a training loop) is discarded as a bare statement, which
would train nothing and raise nothing.

`code_lines` counts the lines of a module that hold code, for the size of
`src/` that CI reports next to its `wc -l` line count."""

import ast
import dataclasses
import io
import os
import tokenize
from typing import NamedTuple

from advseq.config import SCHEMA, VIEWS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "advseq")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# options that only tests set, each kept for the test that needs it
TEST_ONLY = {
    "generator.sample_batch.item_offset":
        "chunked sampling must reproduce the unsplit draw (chunk invariance)",
    "numerics.RngStream.normal.scale":
        "test_thread_count_does_not_change_scores draws a scaled head",
    "generator.mean_nll.batch_size":
        "test_mean_nll_batch_boundary_invariant moves the batch boundary",
    "evaluation.self_bleu.max_n": "hand-counted n=1 cases and the max_n sweep",
    "evaluation.corpus_bleu_mean.max_n": "hand-counted n=1 cases and the max_n sweep",
    "discriminators.DiscriminatorConfig.widths": "the cnn tests vary the filter widths",
}

# operator methods, which the name walk cannot see used, and their use
OPERATORS = {
    "corpus.Vocab.__len__": "`len(vocab)` sizes every model",
    "corpus.SequenceData.__len__": "`len(data)` bounds every batching loop",
    "numerics.ParamStore.__getitem__": "`params[name].grad` in every backward pass",
}


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


def operator_methods(src_trees: dict[str, ast.Module]) -> list[str]:
    """`module.Class.name` of every dunder method but `__init__`."""
    out = []
    for path, tree in src_trees.items():
        module = os.path.splitext(os.path.basename(path))[0]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                out += [f"{module}.{cls.name}.{f.name}" for f in cls.body
                        if isinstance(f, FUNCS) and f.name.startswith("__")
                        and f.name.endswith("__") and f.name != "__init__"]
    return sorted(out)


def test_every_src_name_is_reached_from_src_or_bench():
    src = parse_tree(PACKAGE)
    assert src, PACKAGE
    assert unreferenced_names(src, parse_tree(os.path.join(ROOT, "bench"))) == []


def test_every_operator_method_names_its_use():
    assert operator_methods(parse_tree(PACKAGE)) == sorted(OPERATORS)


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


class Option(NamedTuple):
    label: str            # module[.Class][.function].name
    callee: str           # the name a call uses: the function, or the class
    name: str
    position: int | None  # index among a call's positional arguments


class Call(NamedTuple):
    n_pos: int                # positional arguments before any *args
    keywords: set[str]
    splat: bool               # has *args or **kwargs, so it may set anything
    forwarded: dict           # argument slot -> label of the caller's own parameter passed as is


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _walk(src_trees: dict[str, ast.Module], user_trees: dict[str, ast.Module]
          ) -> tuple[list[Option], dict[str, list[Call]], set[str]]:
    """Every defaulted parameter and defaulted dataclass field of
    `src_trees`; every call in both tree sets by callee name (`f(...)`,
    `x.f(...)`, `Class(...)`); and every name used other than as a callee.
    A method's positions skip `self`; `__init__` parameters and dataclass
    fields are set by calling the class."""
    opts: list[Option] = []
    calls: dict[str, list[Call]] = {}
    values: set[str] = set()

    def visit(node: ast.AST, prefix: str, cls: ast.ClassDef | None, owner: str | None,
              in_src: bool) -> None:
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            slots = [*enumerate(node.args), *((k.arg, k.value) for k in node.keywords if k.arg)]
            calls.setdefault(name, []).append(Call(
                sum(not isinstance(a, ast.Starred) for a in node.args),
                {k.arg for k in node.keywords if k.arg},
                any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords),
                {slot: f"{owner}.{a.id}" for slot, a in slots
                 if owner and isinstance(a, ast.Name)}))
            children = [c for c in children if c is not f]
            children += [] if isinstance(f, ast.Name) else list(ast.iter_child_nodes(f))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            values.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            values.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            prefix, cls, owner = f"{prefix}.{node.name}", node, None
            if in_src and _is_dataclass(node):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                opts.extend(Option(f"{prefix}.{f.target.id}", node.name, f.target.id, i)
                            for i, f in enumerate(fields) if f.value is not None)
        elif isinstance(node, FUNCS):
            a = node.args
            method = cls is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            init = method and node.name == "__init__"
            owner = prefix if init else f"{prefix}.{node.name}"
            callee = cls.name if init else node.name
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            if in_src:
                opts.extend(Option(f"{owner}.{arg.arg}", callee, arg.arg, i - method)
                            for i, arg in enumerate(positional[first:], start=first))
                opts.extend(Option(f"{owner}.{arg.arg}", callee, arg.arg, None)
                            for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            prefix, cls = f"{prefix}.{node.name}", None
        for child in children:
            visit(child, prefix, cls, owner, in_src)

    for trees, in_src in ((src_trees, True), (user_trees, False)):
        for path, tree in trees.items():
            visit(tree, os.path.splitext(os.path.basename(path))[0], None, None, in_src)
    return opts, calls, values


def _sets(call: Call, opt: Option, unset: set[str]) -> bool:
    """Whether `call` may set `opt`: an argument in its slot that is not
    one of the caller's own never-set options passed on."""
    if call.splat:
        return True
    if opt.name in call.keywords:
        slot = opt.name
    elif opt.position is not None and opt.position < call.n_pos:
        slot = opt.position
    else:
        return False
    return call.forwarded.get(slot) not in unset


def unset_options(src_trees: dict[str, ast.Module], user_trees: dict[str, ast.Module],
                  test_only: set[str]) -> tuple[list[str], list[str]]:
    """Labels of the options of `src_trees` that no call in `src_trees` or
    `user_trees` sets, and of the defaults that every such call sets, so
    that none reaches the default. A call that only passes on its caller's
    own never-set option does not set it, unless that option is in
    `test_only`, repeated until nothing new is found. A `replace(x, f=...)`
    call sets field `f` of every dataclass, but, copying the fields it
    leaves out, never reaches a default. A function also used other than as
    a callee (kept in a table, passed as a callback) is exempt from both.
    Names match without regard to scope, so a clash of names can hide a
    finding."""
    opts, calls, values = _walk(src_trees, user_trees)
    classes = {n.name: _is_dataclass(n) for t in src_trees.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    checked = [o for o in opts if o.callee not in values or o.callee in classes]
    replaced = [c._replace(n_pos=0) for c in calls.get("replace", [])]
    setters = {o.label: calls.get(o.callee, []) + (replaced if classes.get(o.callee) else [])
               for o in checked}
    never_set: set[str] = set()
    while True:
        found = {o.label for o in checked
                 if not any(_sets(c, o, never_set - test_only) for c in setters[o.label])}
        if found == never_set:
            break
        never_set = found
    never_omitted = [o.label for o in checked if o.label not in never_set
                     and all(_sets(c, o, set()) for c in calls.get(o.callee, []))]
    return sorted(never_set), sorted(never_omitted)


def view_faults(views: dict[type, str], keys) -> list[str]:
    """Each of `keys` in a section of `views` that names no field of the
    section's view, and each field that such a key fills but that has a
    default of its own."""
    faults = []
    for cls, section in views.items():
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key in keys:
            prefix, _, name = key.partition(".")
            if prefix != section:
                continue
            if name not in fields:
                faults.append(f"{key} names no field of {cls.__name__}")
            elif (fields[name].default is not dataclasses.MISSING
                  or fields[name].default_factory is not dataclasses.MISSING):
                faults.append(f"{cls.__name__}.{name} has a default, but {key} fills it")
    return faults


def test_every_option_has_a_caller_in_src_or_bench():
    src = parse_tree(PACKAGE)
    never_set, never_omitted = unset_options(src, parse_tree(os.path.join(ROOT, "bench")),
                                             set(TEST_ONLY))
    assert never_set == sorted(TEST_ONLY)
    assert never_omitted == []


def unused_imports(tree: ast.Module) -> list[str]:
    """The names that `tree`'s import statements bind and that no Name node
    of it reads; `from __future__` imports bind nothing."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return sorted(bound - {n.id for n in ast.walk(tree)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)})


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports(ast.parse(
        "from __future__ import annotations\nimport os.path, re as regex\n"
        "from m import a, b as c\nprint(os.sep, a)\n")) == ["c", "regex"]
    found = {path: names for top in ("src", "tests", "bench")
             for path, tree in parse_tree(os.path.join(ROOT, top)).items()
             if (names := unused_imports(tree))}
    assert found == {}


def test_schema_is_the_only_home_of_run_defaults():
    assert view_faults(VIEWS, SCHEMA) == []


def test_the_view_check_finds_a_stray_key_and_a_restated_default():
    @dataclasses.dataclass
    class View:
        a: int
        b: int = 2
        c: list = dataclasses.field(default_factory=list)

    assert view_faults({View: "s"}, ["s.a", "s.b", "s.c", "s.d", "t.e"]) == [
        "View.b has a default, but s.b fills it", "View.c has a default, but s.c fills it",
        "s.d names no field of View"]


def test_the_option_walk_matches_keywords_positions_and_values():
    src = {"m.py": ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, c=2, *, d=None, e=None):\n    return a\n"
        "def hook(x, y=0):\n    return x\n"
        "TABLE = {'h': hook}\n"
        "class K:\n"
        "    def __init__(self, p, q=0.5):\n        self.p = p\n"
        "    def meth(self, r=None):\n        return r\n"
        "@dataclass\n"
        "class D:\n    u: int\n    v: int = 3\n    w: int = 4\n"
        "@dataclass\n"
        "class E:\n    s: int = 0\n    t: int = 0\n"
        "def outer(a, flag=True):\n    return inner(a, flag)\n"
        "def inner(a, flag=True):\n    return a\n")}
    user = {"b.py": ast.parse(
        "import dataclasses, m\nm.f(0, 1, d=2)\nm.f(0, 1, d=3, e=None)\nm.K(1).meth(2)\n"
        "m.D(1, 2)\nm.outer(1)\ndataclasses.replace(m.E(), t=2)\n")}
    never_set, never_omitted = unset_options(src, user, set())
    assert never_set == ["m.D.w", "m.E.s", "m.K.q", "m.f.c", "m.inner.flag", "m.outer.flag"]
    assert never_omitted == ["m.D.v", "m.K.meth.r", "m.f.b", "m.f.d"]


def generator_functions(trees: dict[str, ast.Module]) -> set[str]:
    """Names of the functions in `trees` whose own body, outside nested
    defs and lambdas, yields."""
    found = set()

    def yields(node: ast.AST) -> bool:
        return any(isinstance(c, (ast.Yield, ast.YieldFrom)) or not isinstance(
                   c, (*DEFS, ast.Lambda)) and yields(c) for c in ast.iter_child_nodes(node))

    for tree in trees.values():
        found |= {n.name for n in ast.walk(tree) if isinstance(n, FUNCS) and yields(n)}
    return found


def discarded_calls(names: set[str], trees: dict[str, ast.Module]) -> list[str]:
    """`path:line name` of each expression statement of `trees` that is
    only a call to one of `names` (`f(...)` or `x.f(...)`)."""
    return sorted(f"{path}:{node.lineno} {name}" for path, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                  and (name := getattr(node.value.func, "id", None)
                       or getattr(node.value.func, "attr", None)) in names)


def test_no_training_loop_is_called_and_discarded():
    loops = generator_functions(parse_tree(PACKAGE))
    assert {"pretrain_generator", "pretrain_discriminator", "adversarial_train"} <= loops
    trees = {path: tree for top in ("src", "tests", "bench")
             for path, tree in parse_tree(os.path.join(ROOT, top)).items()}
    assert discarded_calls(loops, trees) == []


def test_the_discard_walk_finds_a_bare_generator_call():
    src = {"m.py": ast.parse(
        "def loop(n):\n    for i in range(n):\n        yield i\n"
        "def plain():\n    def inner():\n        yield 1\n    return inner\n"
        "def wrapped():\n    return (i for i in range(2))\n")}
    assert generator_functions(src) == {"inner", "loop"}
    user = {"b.py": ast.parse(
        "import m\nm.loop(3)\nlist(m.loop(3))\nfor _ in m.loop(2):\n    pass\n"
        "x = m.loop(1)\nm.plain()\nloop(4)\n")}
    assert discarded_calls(generator_functions(src), user) == ["b.py:2 loop", "b.py:8 loop"]


def code_lines(source: str) -> int:
    """Lines of `source` that hold code: neither blank, nor only a comment,
    nor part of a docstring (the leading string of a module, class or
    function body). Deleting a comment or a blank line does not change it."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node, clean=False):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = ('"""Module\n\ndocstring."""\n\n# a comment\nimport os  # trailing\n\n\n'
              'def f(a,\n      b):\n    """Doc."""\n    s = """not a\n    docstring"""\n'
              '    return (a +\n\n            b)\n')
    assert code_lines(source) == 7
    assert code_lines("x = 1\n# gone\n\ny = 2\n") == code_lines("x = 1\ny = 2\n") == 2
