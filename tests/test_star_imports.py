"""Every ``repro`` module that declares ``__all__`` must be
star-importable: each exported name has to exist."""

import importlib
import pkgutil

import repro


def test_every_module_with_all_is_star_importable():
    broken = {}
    checked = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        if not hasattr(module, "__all__"):
            continue
        checked.append(info.name)
        namespace: dict = {}
        try:
            exec(f"from {info.name} import *", namespace)
        except AttributeError as exc:
            broken[info.name] = str(exc)
            continue
        if len(set(module.__all__)) != len(module.__all__):
            broken[info.name] = "duplicate export"
    assert not broken
    assert {"repro.city.devices", "repro.model.services"} <= set(checked)
