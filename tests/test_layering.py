"""The library's modules use one another only through names without a leading
underscore: a private name stays behind the module that defines it, also from
a class that subclasses one of its classes.  And none uses numpy.random: its
import adds ~2 MB to a process, and the stdlib generator serves the few draws
the library makes."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracmk"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(module: str | None, level: int) -> bool:
    """Whether `from <level dots><module> import ...` names the package or a
    module of it."""
    if level:
        return level == 1
    return module is not None and (module == "fracmk" or module.startswith("fracmk."))


def private_reaches(source: str) -> list[str]:
    """The underscore names a module's source imports from a sibling module,
    or reads off one as an attribute, and those a class subclassing a
    sibling's class reads off self or super() without defining them itself."""
    tree = ast.parse(source)
    bound = set()  # local names of sibling modules
    imported = set()  # local names of other names imported from siblings
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node.module, node.level):
            for alias in node.names:
                if node.module in (None, "fracmk") and alias.name in MODULES:
                    bound.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                else:
                    imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fracmk.") and alias.asname:
                    bound.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in bound:
                found.append(f"{owner.id}.{node.attr}")
            elif isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name):
                if owner.value.id == "fracmk" and owner.attr in MODULES:
                    found.append(f"fracmk.{owner.attr}.{node.attr}")
        elif isinstance(node, ast.ClassDef) and any(_sibling_class(base, bound, imported) for base in node.bases):
            found += _inherited_private_uses(node)
    return found


def _sibling_class(base: ast.expr, bound: set[str], imported: set[str]) -> bool:
    """Whether a base class expression names a class of a sibling module."""
    if isinstance(base, ast.Name):
        return base.id in imported
    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        return base.value.id in bound
    return (
        isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Attribute)
        and isinstance(base.value.value, ast.Name)
        and base.value.value.id == "fracmk"
    )


def _inherited_private_uses(cls: ast.ClassDef) -> list[str]:
    """The underscore names cls reads off self or super() but neither
    defines in its body nor assigns to self: its bases' private names."""
    own = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            own.update(t.id for t in targets if isinstance(t, ast.Name))
    uses = []
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "self":
            if isinstance(node.ctx, ast.Store):
                own.add(node.attr)
            else:
                uses.append(("self", node.attr))
        elif isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name) and owner.func.id == "super":
            uses.append(("super()", node.attr))
    return [f"{owner}.{attr}" for owner, attr in uses if owner == "super()" or attr not in own]


CASES = {
    "from-relative": ("from .penalty import Solution, _solution\n", ["from .penalty import _solution"]),
    "from-absolute": ("from fracmk.dense import _pcg\n", ["from fracmk.dense import _pcg"]),
    "from-deferred": ("def f():\n    from .runs import _verify_names\n", ["from .runs import _verify_names"]),
    "attribute": ("from . import runs\nruns._verify_names(None)\n", ["runs._verify_names"]),
    "attribute-alias": ("from . import runs as r\nr._X\n", ["r._X"]),
    "import-alias": ("import fracmk.runs as r\nr._X\n", ["r._X"]),
    "import-dotted": ("import fracmk.runs\nfracmk.runs._X\n", ["fracmk.runs._X"]),
    # a module's own private names, dunders and private methods are fine
    "dunder": ("from . import __version__\nfrom .grid import lp_norm\n", []),
    "own-and-methods": ("def _f():\n    pass\nself._toeplitz(C)\nnp.lib._x\n", []),
    # a subclass of a sibling's class reads none of its base's private names
    "subclass": (
        "from .lattice import WeakForm\nclass P(WeakForm):\n    def f(self):\n        return self._toeplitz(1)\n",
        ["self._toeplitz"],
    ),
    "subclass-attribute-base": (
        "from . import lattice\nclass P(lattice.WeakForm):\n    def f(self):\n        return self._weak_form\n",
        ["self._weak_form"],
    ),
    "subclass-super": (
        "from fracmk.lattice import WeakForm\nclass P(WeakForm):\n    def _f(self):\n        super()._f()\n",
        ["super()._f"],
    ),
    # its own private methods and attributes, and a local base's, are fine
    "subclass-own": (
        "from .lattice import WeakForm\nclass P(WeakForm):\n    _k = 1\n"
        "    def _f(self):\n        self._x = self._k\n    def g(self):\n        return self._f(), self._x\n",
        [],
    ),
    "local-base": ("class B:\n    def _f(self):\n        pass\nclass P(B):\n    def g(self):\n        self._f()\n", []),
}


@pytest.mark.parametrize("case", list(CASES))
def test_private_reaches_finds_every_form(case):
    source, reaches = CASES[case]
    assert private_reaches(source) == reaches


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_uses_a_private_name_of_a_sibling(module):
    assert private_reaches((PACKAGE / f"{module}.py").read_text()) == []


def numpy_random_uses(source: str) -> list[str]:
    """Every import of numpy.random in a module's source, and every
    np.random or numpy.random attribute it reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module.startswith("numpy.random"):
                found.append(f"from {node.module}")
            elif node.module == "numpy" and any(alias.name == "random" for alias in node.names):
                found.append("from numpy import random")
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"{node.value.id}.random")
    return found


RANDOM_CASES = {
    "attribute": ("import numpy as np\nnp.random.default_rng(0)\n", ["np.random"]),
    "import": ("import numpy.random\n", ["numpy.random"]),
    "from-module": ("from numpy.random import default_rng\n", ["from numpy.random"]),
    "from-numpy": ("from numpy import random\n", ["from numpy import random"]),
    # the stdlib generator is fine
    "stdlib": ("import random\nrng = random.Random(0)\nrng.random()\n", []),
}


@pytest.mark.parametrize("case", list(RANDOM_CASES))
def test_numpy_random_uses_finds_every_form(case):
    source, uses = RANDOM_CASES[case]
    assert numpy_random_uses(source) == uses


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_uses_numpy_random(module):
    assert numpy_random_uses((PACKAGE / f"{module}.py").read_text()) == []
