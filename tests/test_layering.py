"""Layering: no ergrates module reaches into another module's private names.

Each module's underscore names are its own business; a helper another
module needs belongs in that module's public surface (or in the shared
`quadrature` layer).  The scan reads the sources with `ast`, so it sees
`from .mod import _name` as well as `mod._name` through any alias bound
to a package module.  Dunders such as `__version__` are exempt.  The
angular segment rules are private to `quadrature`, so the same scan shows
that no other module builds them: angular integrals go through its two
policies, and the level-set cross-check of I(t) builds its fixed plain
grids from the public `end_power_rule`.

Input checks raise; they never assert, because `python -O` strips assert
statements and the check with them.

Root and peak searches go through the bracketing layer in `quadrature`, so
no module imports `scipy.optimize` or `scipy.stats`; together they cost
about a second of every command's start-up.  The scipy modules the
package does use (`special` for Jacobi rules and Bessel values, `ndimage`
for region-map components) are imported inside the functions that need
them, never at module level, so `import ergrates.cli` and the `classify`
command load no scipy at all.

No public name, constants included, is kept only for tests: each is used
by package code or allowlisted with its reason.  A method or property counts as used only
through an attribute access, never through a bare name of the same
spelling, and `Cls.method` counts only for the method of class Cls.
Test-only references live in `tests/reference.py`.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = "ergrates"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node) -> str | None:
    """'a.b.c' for a chain of attribute lookups on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def cross_module_private_uses(source: str, module: str) -> list[str]:
    """Every use in `source` (module `module`) of another package module's private name,
    in line order."""
    tree = ast.parse(source)
    module_aliases: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module == PACKAGE
                                        or (node.module or "").startswith(PACKAGE + ".")):
                continue
            target = (node.module or "") if node.level else (node.module or "")[len(PACKAGE) + 1:]
            for alias in node.names:
                if not target:
                    # `from . import mod` binds a sibling module (or an __init__ name)
                    module_aliases.add(alias.asname or alias.name)
                    if _private(alias.name):
                        found.append((node.lineno, f"from . import {alias.name}"))
                elif target != module and _private(alias.name):
                    found.append((node.lineno, f"from .{target} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == PACKAGE or alias.name.startswith(PACKAGE + "."):
                    module_aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value)
            if owner is not None and (owner in module_aliases
                                      or owner.split(".")[0] in module_aliases):
                found.append((node.lineno, f"{owner}.{node.attr}"))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert cross_module_private_uses(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_scanner_catches_each_form():
    source = "\n".join([
        "import ergrates.rates",
        "import ergrates.spectral as spec",
        "from . import rates as rates_mod, __version__",
        "from .quadrature import _line_rules, graded_breaks",
        "from .cli import _helper as renamed",
        "from .own import _mine",
        "rates_mod._decay_auto(1)",
        "spec._support_profile",
        "ergrates.rates._map_ordered",
        "rates_mod.__name__",
        "rates_mod.decay_integral",
        "local._private",
    ])
    found = cross_module_private_uses(source, "own")
    assert found == [
        "line 4: from .quadrature import _line_rules",
        "line 5: from .cli import _helper",
        "line 7: rates_mod._decay_auto",
        "line 8: spec._support_profile",
        "line 9: ergrates.rates._map_ordered",
    ]


# -- no scipy.optimize or scipy.stats -----------------------------------------

BANNED = ("scipy.optimize", "scipy.stats")


def _banned(name: str) -> bool:
    return any(name == b or name.startswith(b + ".") for b in BANNED)


def banned_imports(source: str) -> list[str]:
    """Every import of, or attribute path into, scipy.optimize or scipy.stats
    in `source`, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if _banned(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _banned(node.module):
                found.append((node.lineno, node.module))
            else:
                found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                          if _banned(f"{node.module}.{a.name}")]
        elif isinstance(node, ast.Attribute):
            path = _dotted(node)
            if path is not None and _banned(path) and not _banned(_dotted(node.value) or ""):
                found.append((node.lineno, path))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_optimize_or_stats(path):
    assert banned_imports(path.read_text(encoding="utf-8")) == []


def test_banned_import_scanner_catches_each_form():
    source = "\n".join([
        "import scipy.optimize",
        "import scipy.stats as st",
        "from scipy import optimize, special",
        "from scipy import stats as sst",
        "from scipy.optimize import brentq",
        "from scipy.stats._stats_py import theilslopes",
        "import scipy",
        "scipy.optimize.brentq(f, 0, 1)",
        "from scipy import ndimage",
        "from scipy.special import jv",
        "import scipy.statsmodels_like",
    ])
    assert banned_imports(source) == [
        "line 1: scipy.optimize",
        "line 2: scipy.stats",
        "line 3: scipy.optimize",
        "line 4: scipy.stats",
        "line 5: scipy.optimize",
        "line 6: scipy.stats._stats_py",
        "line 8: scipy.optimize",
    ]


def _scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running `code`."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
                         capture_output=True, text=True, check=True, env=env)
    return [m for m in out.stdout.split() if _scipy(m)]


def test_cli_import_leaves_scipy_optimize_and_stats_out():
    # nor any other scipy module: each is imported where it is first needed
    assert _scipy_modules_after("import ergrates, ergrates.cli") == []


def test_classify_command_loads_no_scipy(tmp_path):
    out = tmp_path / "c.json"
    code = ("from ergrates.cli import main\n"
            f"assert main(['classify', '--alpha', '2,1', '--out', {str(out)!r}]) == 0")
    assert _scipy_modules_after(code) == []
    assert out.exists()


# -- scipy is imported inside the functions that use it ------------------------


def module_level_scipy_imports(source: str) -> list[str]:
    """Every import of scipy, or of a scipy module, in `source` that runs when
    the module is imported (anywhere but inside a function), in line order."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names if _scipy(a.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _scipy(node.module or ""):
            found.append((node.lineno, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert module_level_scipy_imports(path.read_text(encoding="utf-8")) == []


def test_module_level_scipy_scanner_catches_each_form():
    source = "\n".join([
        "import scipy",
        "import scipy.special as sp, numpy",
        "from scipy import special",
        "from scipy.special import roots_jacobi",
        "try:",
        "    from scipy import ndimage",
        "except ImportError:",
        "    pass",
        "class Rules:",
        "    import scipy.linalg",
        "    def build(self):",
        "        from scipy import special",
        "def bessel_j(nu, x):",
        "    from scipy import special",
        "    import scipy.special",
        "    def inner():",
        "        import scipy",
        "async def later():",
        "    import scipy",
        "import scipyish",
        "from .scipy import special",
    ])
    assert module_level_scipy_imports(source) == [
        "line 1: scipy",
        "line 2: scipy.special",
        "line 3: scipy",
        "line 4: scipy.special",
        "line 6: scipy",
        "line 10: scipy.linalg",
    ]


# -- no public name kept only for tests ---------------------------------------

# public names no package code uses, each with the reason it stays
PUBLIC_ALLOWLIST = {
    "format_body": "inverse of parse_body: round trips of the body spec grammar",
    "format_measure": "inverse of parse_measure: round trips of the measure spec grammar",
    "p_ladder": "the sqrt(2)-step ladder the rate sweeps are specified on",
    "square_regime": "the paper's box regime table at one point",
    "circle_regime": "the paper's ball regime table at one point",
    "ray_zeros": "the zero-spacing diagnostic of acceptance criterion C03",
    "ray_peaks": "the envelope-peak diagnostic of acceptance criteria C03 and C04",
    "decay_integral_levelform": "perfbench's independent reference for I(t) at p <= 30",
    "norm_sq": "perfbench's simulate check reads the demo action's squared norm",
    "rows": "perfbench's tracer counts region-map points through it, and the oracle tests "
            "read the map's labels through it",
}


def unused_public_names(sources) -> list[str]:
    """Public functions, classes, constants, methods and properties defined at
    the top of the module texts `sources`, or in their top-level classes, that
    no code outside their own bodies refers to, sorted.  A constant's body is
    its assignment.  A top-level name is used by any reference to it; a
    method or property only by an attribute access, since a bare name of the
    same spelling is some other binding, and `Cls.name` uses only the member
    of class Cls when Cls defines one."""
    trees = [ast.parse(text) for text in sources]
    # (name, owning class or "" at the top) -> the nodes of its own bodies
    bodies: dict[tuple[str, str], set[int]] = {}
    for tree in trees:
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d, owner in [(node, ""), *((m, node.name) for m in members)]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    names = [d.name]
                elif isinstance(d, (ast.Assign, ast.AnnAssign)) and not owner:
                    targets = d.targets if isinstance(d, ast.Assign) else [d.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    if not name.startswith("_"):
                        bodies.setdefault((name, owner), set()).update(map(id, ast.walk(d)))
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                cls = node.value.id if isinstance(node.value, ast.Name) else None
                keys = ([(node.attr, cls)] if (node.attr, cls) in bodies
                        else [k for k in bodies if k[0] == node.attr])
            elif isinstance(node, ast.Name):
                keys = [(node.id, "")]
            elif isinstance(node, ast.alias):
                keys = [(node.name, "")]
            else:
                continue
            used.update(k for k in keys if k in bodies and id(node) not in bodies[k])
    return sorted({name for name, _ in set(bodies) - used})


def test_every_public_name_is_used_or_allowlisted():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unused_public_names(sources) == sorted(PUBLIC_ALLOWLIST)


def test_public_name_scanner_flags_test_only_names():
    # stand-ins for the test-only names the package once held: a recursive
    # call, an unused method or an unused constant still flags, a method or
    # a constant used elsewhere does not, and Cls.method uses no other
    # class's method of that name
    stand_ins = "\n".join([
        "J0_FIRST_ZERO = 2.404825557695773",
        "FLOW_STEPS: int = 8",
        "def apply_flow(action, s):",
        "    return AtomicAction(action.frequencies, action.coefficients, action.dim)",
        "def decay_constant_estimate(body, xs):",
        "    return indicator_ft(body, xs)",
        "def density_at(m, x):",
        "    return sum(density_at(p, x) for p in m.parts)",
        "def equivalence_bounds(phi, sector, dim):",
        "    return sector.sphere_sample(dim)",
        "def indicator_ft_quadrature(body, x):",
        "    return integrate_box(body, x)",
        "class SectorSamples:",
        "    def sphere_sample(self, dim):",
        "        return self.bound",
        "    @property",
        "    def random_points(self):",
        "        return self.bound",
        # a local of a method's spelling is no call of the method
        "class FlowAction:",
        "    def energy(self):",
        "        return self.frequencies",
        "def run_flow(action):",
        "    energy = abs(action.frequencies)",
        "    return energy * FLOW_STEPS",
        "class RoundLens:",
        "    @classmethod",
        "    def from_focus(cls, f):",
        "        return cls()",
        "class FlatLens:",
        "    @classmethod",
        "    def from_focus(cls, f):",
        "        return cls()",
        "def make_lenses(f):",
        "    return RoundLens.from_focus(f), FlatLens()",
    ])
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unused_public_names(sources + [stand_ins]) == sorted([
        *PUBLIC_ALLOWLIST, "FlowAction", "J0_FIRST_ZERO", "SectorSamples", "apply_flow",
        "decay_constant_estimate", "density_at", "energy", "equivalence_bounds",
        "from_focus", "indicator_ft_quadrature", "make_lenses", "random_points", "run_flow"])
