"""Every name a module exports resolves, so a deleted export cannot linger
in an ``__all__`` list; every function the traced benchmark wraps exists;
and the package keeps one implementation of each shared primitive."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

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
