"""Every name a src/histlstm module imports is read in that module (the
package's __init__.py, which imports to re-export, aside)."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "histlstm")


def unused_imports(source: str) -> list:
    """Each name an import statement binds that no name in the module reads;
    `from __future__` imports bind nothing and are not checked."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_check_names_each_unread_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Optional, Sequence\n"
              "from .cells import head_predict as hp, matvec\n"
              "def f(x: Optional[int]):\n"
              "    return np.zeros(x), hp\n")
    assert unused_imports(source) == ["os", "Sequence", "matvec"]


def test_every_import_in_src_is_read():
    unused = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            unused += [f"{os.path.basename(path)}: {name}" for name in unused_imports(fh.read())]
    assert unused == []
