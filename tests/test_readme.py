"""The README's Library-use example runs against the current API."""

import dataclasses
import re
from pathlib import Path

import vitalnet.nn

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(monkeypatch):
    train = vitalnet.nn.train

    def one_epoch(dataset, mcfg, tcfg):
        return train(dataset, mcfg, dataclasses.replace(tcfg, epochs=1))

    monkeypatch.setattr(vitalnet.nn, "train", one_epoch)
    namespace = {}
    exec(library_use_block(), namespace)
    assert len(namespace["history"]) == 1
    assert len(namespace["test_set"]) > 0
    assert 0.0 <= namespace["accuracy"] <= 1.0 and 0.0 <= namespace["auc"] <= 1.0
