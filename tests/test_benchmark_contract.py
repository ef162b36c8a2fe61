"""The functions that the benchmark's traced run reports per layer exist.

A traced run wraps each function named by a ``<module>.<function>.calls``
metric of ``BENCHMARK.json``, looked up in the defining ``fgqa`` module's
own namespace (a method in its class's ``__dict__``); a name that is not
found there is skipped, and its metrics are missing from the result line.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
TRACED = [entry["name"].removesuffix(".calls") for entry in BENCHMARK["per_layer"]
          if entry["name"].endswith(".calls")]


def test_the_benchmark_declares_traced_functions():
    assert TRACED


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_is_defined(name):
    module, _, attr = name.partition(".")
    owner_name, _, function = attr.rpartition(".")
    owner = importlib.import_module(f"fgqa.{module}")
    if owner_name:
        owner = vars(owner)[owner_name]
    assert function in vars(owner), f"{name} is not defined in fgqa.{module}"
    assert callable(getattr(owner, function))
