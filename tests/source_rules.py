"""The one source-rule scanner of the test suite.

`PACKAGE` lists the modules of `src/addcomb`; `TOOLING` lists the test
modules, the root `conftest.py` and the scripts of `bench/`.  `scan(path)` parses and walks a file
once per session, giving each node with its enclosing function, and
`nodes(source)` walks a snippet the same way.  The rules below read
such a walk.  Each rule's test over the files and its self-test on a
breaking snippet sit in the test module of its guarantee: test_budget
(BudgetExceeded, the error rule, no `assert`), test_cli (only `cli.main`
calls `_emit`), test_decompose (no `recheck_*` calls a producer step:
`dyadic_band`, `_level`, `_reg_step` or `_two_sided_core`), test_energy
(no package module calls `decide_leq`), test_key_format,
test_harness (`route_calls`: the incidence recount `_direct_incidences`
calls no incidence counter and nothing from the kernel modules),
test_kernels_equivalence (`collinear_six_counts` calls no fast T_o route
and no line census), test_lean_import (no package module but `harness`
imports `_kernels`),
test_line_census (only `harness` calls `line_through`, and only
`_kernels_py` calls `_canonical_span`), test_one_mixer, test_rational_rule
(one-argument `Fraction` calls), test_sets (`raise_sites` finds none in
`sets.generate` or a kind's builder), test_unused_imports.
"""

import ast
from functools import cache
from pathlib import Path

from addcomb import errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/addcomb/*.py"))
TOOLING = sorted([*ROOT.glob("tests/*.py"), ROOT / "conftest.py", *ROOT.glob("bench/*.py")])

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk(node, fn):
    for child in ast.iter_child_nodes(node):
        yield child, fn
        yield from _walk(child, child.name if isinstance(child, _FUNCTIONS) else fn)


def nodes(source: str) -> tuple:
    """(node, name of its innermost enclosing function, None at module
    level) for each node of `source`."""
    return tuple(_walk(ast.parse(source), None))


@cache
def scan(path: Path) -> tuple:
    """`nodes` of the file at `path`, parsed once per session."""
    return nodes(path.read_text(encoding="utf-8"))


def findings(rule) -> dict:
    """{path under the root: what `rule` finds in its walk}, for each
    module of the package where the rule finds something."""
    found = {p.relative_to(ROOT).as_posix(): rule(scan(p)) for p in PACKAGE}
    return {path: hits for path, hits in found.items() if hits}


def _name(node):
    """The name that a Name or Attribute node ends in, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _in_order(found) -> list:
    """The payloads of (node, payload) pairs, in source order."""
    return [x for _, x in sorted(found, key=lambda f: (f[0].lineno, f[0].col_offset))]


ADDCOMB_ERRORS = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.AddcombError)}
# (module, exception, enclosing function) of the raises that a Python
# protocol requires to be that exception
PROTOCOL_RAISES = {
    ("__init__.py", "AttributeError", "__getattr__"),  # PEP 562 module __getattr__
    ("cli.py", "ArgumentTypeError", "_int_flag"),  # an argparse type= refusal
    ("energy.py", "KeyError", "__getitem__"),  # _Entries is a Mapping
    ("sets.py", "AttributeError", "__setattr__"),  # RatSet is immutable
}


def raise_sites(walk) -> list:
    """(exception name, enclosing function) of each `raise`, in source
    order.  The name is None for a bare re-raise."""
    found = []
    for node, fn in walk:
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node, (exc and _name(exc), fn)))
    return _in_order(found)


def stray_raises(module: str, walk) -> list:
    """The raise sites that break the error rule: not an AddcombError
    subclass, not a bare re-raise, not a listed protocol raise of `module`."""
    return [(name, fn) for name, fn in raise_sites(walk)
            if name is not None and name not in ADDCOMB_ERRORS
            and (module, name, fn) not in PROTOCOL_RAISES]


def assert_lines(walk) -> list:
    """Line number of each `assert` statement."""
    return sorted(node.lineno for node, _ in walk if isinstance(node, ast.Assert))


def den_none_checks(walk) -> list:
    """Line numbers of the comparisons between a name or attribute called
    `den` and None."""
    found = []
    for node, _ in walk:
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(_name(x) == "den" for x in operands) and any(
                    isinstance(x, ast.Constant) and x.value is None for x in operands)):
                found.append(node.lineno)
    return sorted(found)


DEFERRED = ("mpmath", "platform", "statistics", "importlib.resources", "importlib.metadata")


def eager_imports(walk) -> list:
    """(line, module) of each import outside any function body of a module
    in DEFERRED or below one."""
    found = []
    for node, fn in walk:
        if fn is not None:
            continue
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        hits = {d for n in names for d in DEFERRED if n == d or n.startswith(d + ".")}
        found += [(node, (node.lineno, d)) for d in sorted(hits)]
    return _in_order(found)


def call_sites(walk, name: str) -> list:
    """The enclosing function of each call of `name`, by name or
    attribute, in source order."""
    return _in_order((node, fn) for node, fn in walk
                     if isinstance(node, ast.Call) and _name(node.func) == name)


def module_imports(walk, module: str) -> list:
    """Line numbers of the import statements that load the package module
    `module`: `from . import module`, `from .module import ...`, and their
    absolute forms through `addcomb`, in source order."""
    full = f"addcomb.{module}"
    found = []
    for node, _ in walk:
        if isinstance(node, ast.Import):
            hit = any(a.name == full for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node)
            hit = base == full or (base == "addcomb" and any(a.name == module for a in node.names))
        else:
            continue
        if hit:
            found.append(node.lineno)
    return sorted(found)


def _import_base(node) -> str:
    """The absolute module a `from ... import` reads; a relative import
    names a module of the package itself."""
    return ".".join(filter(None, ["addcomb" if node.level else None, node.module]))


def imported_names(walk, module: str) -> set:
    """Names that the imports of a walk bind from the package module
    `module`: `from .module import x` and its absolute form through
    `addcomb`, and the module itself for `from . import module`."""
    full = f"addcomb.{module}"
    bound = set()
    for node, _ in walk:
        if isinstance(node, ast.ImportFrom):
            base = _import_base(node)
            if base == full:
                bound |= {a.asname or a.name for a in node.names}
            elif base == "addcomb":
                bound |= {a.asname or a.name for a in node.names if a.name == module}
    return bound


def route_calls(walk, fn: str, names, modules) -> list:
    """The calls inside function `fn` that reach a route it must not use,
    in source order: a call of a name in `names` or of a name imported
    from one of the package `modules`, by name or attribute, and any call
    through an attribute of such a module or name, named `base.attr`."""
    banned = set(names).union(*(imported_names(walk, m) for m in modules))
    bases = banned | set(modules)
    found = []
    for node, where in walk:
        if where != fn or not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and _name(func.value) in bases:
            found.append((node, f"{_name(func.value)}.{func.attr}"))
        elif _name(func) in banned:
            found.append((node, _name(func)))
    return _in_order(found)


def one_arg_calls(walk, name: str) -> list:
    """The enclosing function of each call of `name`, by name or attribute,
    on one positional argument that is neither starred nor an int literal
    and no keyword, in source order."""
    found = []
    for node, fn in walk:
        if (isinstance(node, ast.Call) and _name(node.func) == name and len(node.args) == 1
                and not node.keywords and not isinstance(node.args[0], ast.Starred)
                and not (isinstance(node.args[0], ast.Constant)
                         and type(node.args[0].value) is int)):
            found.append((node, fn))
    return _in_order(found)


# the state increment and the two multipliers of the output function
CONSTANTS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def constant_lines(walk) -> dict:
    """For each SplitMix64 constant, the line numbers of the int literals
    equal to it."""
    found = {c: [] for c in CONSTANTS}
    for node, _ in walk:
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value in found:
            found[node.value].append(node.lineno)
    return {c: sorted(lines) for c, lines in found.items()}


def unused_imports(walk) -> list:
    """Names bound by imports that are never read and not listed in the
    module's `__all__`, sorted.  `from __future__` binds nothing."""
    bound, read, exported = set(), set(), set()
    for node, fn in walk:
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif fn is None and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(bound - read - exported)
