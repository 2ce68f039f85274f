"""Every parameter of a function in the package is read by its body.

A parameter that nothing reads looks like a setting but changes nothing, so
callers keep passing values that have no effect.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "conekit"

# cop_refute keeps its tolerance as the second positional argument, which the
# benchmark tracer reads; the CLI handlers share one (args, ctx) signature
ALLOWED = {("cones.py", "cop_refute", "tol")}
CLI_HANDLER_PARAMS = {"args", "ctx"}


def _params(fn) -> list:
    a = fn.args
    named = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
    return [p.arg for p in named if p is not None]


def _bound_methods(tree) -> set:
    """Functions whose first parameter (self or cls) the call binds."""
    return {
        fn
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(getattr(d, "id", None) == "staticmethod"
                    for d in fn.decorator_list)
    }


def _unread(path: pathlib.Path) -> list:
    out = []
    tree = ast.parse(path.read_text(), str(path))
    methods = _bound_methods(tree)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in _params(fn)[fn in methods:]:
            if name in read or (path.name, fn.name, name) in ALLOWED:
                continue
            if (path.name == "cli.py" and fn.name.startswith("_run_")
                    and name in CLI_HANDLER_PARAMS):
                continue
            out.append(f"{path.name}:{fn.lineno} {fn.name}({name})")
    return out


def test_every_parameter_is_read():
    files = sorted(SRC.glob("*.py"))
    assert files
    unread = [hit for path in files for hit in _unread(path)]
    assert unread == []
