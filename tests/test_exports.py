"""Every name a module exports resolves, so a deleted export cannot linger
in an ``__all__`` list."""

import importlib
import pkgutil

import spectralcurves


def test_every_exported_name_resolves():
    modules = [spectralcurves] + [
        importlib.import_module("spectralcurves." + info.name)
        for info in pkgutil.iter_modules(spectralcurves.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), "%s.%s" % (mod.__name__, name)
