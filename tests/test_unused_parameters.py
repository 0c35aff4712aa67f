"""Every parameter of every function in src/histlstm is read in its body."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "histlstm")


def unused_parameters(source: str) -> list:
    """(function, parameter) for each parameter, other than self or cls, that
    no name in its function's body reads; nested functions count as the body,
    and a lambda's own parameters are not checked."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.name, p) for p in params if p not in ("self", "cls") and p not in read]
    return found


def test_the_check_names_each_unread_parameter():
    source = ("def f(self, a, b, *c, d, **e):\n"
              "    b = 1\n"
              "    def g(x):\n"
              "        return a(lambda unused: x)\n"
              "    return d\n")
    assert unused_parameters(source) == [("f", "b"), ("f", "c"), ("f", "e")]


def test_every_parameter_in_src_is_read():
    unused = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            unused += [f"{os.path.basename(path)}: {fn}({p})"
                       for fn, p in unused_parameters(fh.read())]
    assert unused == []
