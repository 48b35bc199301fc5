"""Every name a module exports resolves, so a deleted export cannot linger
in an ``__all__`` list; every function the benchmark wraps or calls exists
and accepts its arguments; the package keeps one implementation of each
shared primitive; and it runs on numpy alone, scipy being a test-only
dependency."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import spectralcurves


def test_every_exported_name_resolves():
    modules = [spectralcurves] + [
        importlib.import_module("spectralcurves." + info.name)
        for info in pkgutil.iter_modules(spectralcurves.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), "%s.%s" % (mod.__name__, name)


def test_products_from_roots_have_one_implementation():
    # polyring._fromroots reproduces numpy's polyfromroots bit for bit at a
    # fraction of its cost; a second caller of numpy's would split the two
    src = pathlib.Path(spectralcurves.__file__).parent
    calls = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            if name == "polyfromroots":
                calls.append("%s:%d" % (path.name, node.lineno))
    assert calls == []


def test_no_module_imports_scipy():
    src = pathlib.Path(spectralcurves.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "scipy" for name in names):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


_NO_SCIPY_RUN = """
import cmath, sys
from spectralcurves import build_curve, phi_map, solve_Ba
from spectralcurves.cli import main
curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
phi_map(curve, solve_Ba(curve), cmath.exp(2.1j))    # Gauss-Jacobi and -Legendre rules
assert main(["scan", "--genus", "2", "--samples", "4", "--seed", "3",
             "--out", sys.argv[1]]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_periods_and_scan_run_without_loading_scipy(tmp_path):
    # a fresh interpreter, since this one has scipy loaded by other tests
    pkg_root = os.path.dirname(os.path.dirname(spectralcurves.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path / "scan.csv")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_traced_benchmark_layer_exists():
    # perfbench/tracing.py wraps these by name; a moved or deleted one would
    # crash a traced benchmark run with an AttributeError
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for mod, names in tracing.LAYERS.items():
        module = importlib.import_module("spectralcurves." + mod)
        for name in names:
            assert callable(getattr(module, name, None)), "spectralcurves.%s.%s" % (mod, name)


def _package_names(tree):
    """Names a perfbench module binds to spectralcurves modules and objects."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "spectralcurves":
                    bound = alias.name if alias.asname else "spectralcurves"
                    names[alias.asname or bound] = importlib.import_module(bound)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.partition(".")[0] == "spectralcurves":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(mod, alias.name, None) \
                    or importlib.import_module(node.module + "." + alias.name)
    return names


def test_every_benchmark_call_into_the_package_binds():
    # perfbench runs outside tier-1, so a removed or renamed parameter
    # would only show as a crashed benchmark run: every call into the
    # package, direct or forwarded by ``workloads.timed(fn, *args)``, must
    # name a function that exists and whose signature accepts the call's
    # positional count and keyword names
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    checked, bad = [], []
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _package_names(tree)

        def resolve(expr):
            if isinstance(expr, ast.Name):
                return names.get(expr.id)
            if isinstance(expr, ast.Attribute):
                owner = resolve(expr.value)
                if inspect.ismodule(owner) or inspect.isclass(owner):
                    assert hasattr(owner, expr.attr), "%s:%d: %s.%s" % (
                        path.name, expr.lineno, owner.__name__, expr.attr)
                    return getattr(owner, expr.attr)
            return None

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "timed" and args:
                func, args = args[0], args[1:]    # workloads.timed(fn, *args)
            target = resolve(func)
            if not callable(target) or inspect.ismodule(target):
                continue
            keywords = [k.arg for k in node.keywords]
            if None in keywords or any(isinstance(a, ast.Starred) for a in args):
                continue    # unpacked arguments: the count is not known here
            where = "%s:%d %s" % (path.name, node.lineno, ast.unparse(func))
            try:
                inspect.signature(target).bind(*args, **dict.fromkeys(keywords))
            except TypeError as exc:
                bad.append("%s: %s" % (where, exc))
            checked.append(where)
    assert len(checked) > 20
    assert bad == []
