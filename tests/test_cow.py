"""Unit tests for the copy-on-write dict and its recording layer."""

import ast
import pathlib

import pytest

from repro.cow import CowDict, RecordingCowDict

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class TestBasics:
    def test_set_get(self):
        d = CowDict()
        d["a"] = 1
        assert d["a"] == 1
        assert d.get("a") == 1

    def test_get_default(self):
        d = CowDict()
        assert d.get("missing") is None
        assert d.get("missing", 7) == 7

    def test_missing_raises(self):
        with pytest.raises(KeyError):
            CowDict()["nope"]

    def test_contains(self):
        d = CowDict()
        d["a"] = 1
        assert "a" in d
        assert "b" not in d

    def test_delete(self):
        d = CowDict()
        d["a"] = 1
        del d["a"]
        assert "a" not in d

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            del CowDict()["a"]

    def test_len_and_iter(self):
        d = CowDict()
        d["a"] = 1
        d["b"] = 2
        assert len(d) == 2
        assert sorted(d) == ["a", "b"]
        assert dict(d.items()) == {"a": 1, "b": 2}


class TestForking:
    def test_fork_reads_parent(self):
        parent = CowDict()
        parent["a"] = 1
        child = parent.fork()
        assert child["a"] == 1

    def test_child_write_does_not_leak(self):
        parent = CowDict()
        parent["a"] = 1
        child = parent.fork()
        child["a"] = 2
        child["b"] = 3
        assert parent["a"] == 1
        assert "b" not in parent

    def test_commit_merges(self):
        parent = CowDict()
        parent["a"] = 1
        child = parent.fork()
        child["a"] = 2
        child["b"] = 3
        child.commit()
        assert parent["a"] == 2
        assert parent["b"] == 3

    def test_commit_root_raises(self):
        with pytest.raises(ValueError):
            CowDict().commit()

    def test_tombstone_shadows_parent(self):
        parent = CowDict()
        parent["a"] = 1
        child = parent.fork()
        del child["a"]
        assert "a" not in child
        assert "a" in parent

    def test_tombstone_commit_deletes_in_parent(self):
        parent = CowDict()
        parent["a"] = 1
        child = parent.fork()
        del child["a"]
        child.commit()
        assert "a" not in parent

    def test_deep_fork_chain(self):
        root = CowDict()
        root["x"] = 0
        layers = [root]
        for i in range(5):
            child = layers[-1].fork()
            child[f"k{i}"] = i
            layers.append(child)
        deepest = layers[-1]
        assert deepest["x"] == 0
        assert len(deepest) == 6

    def test_keys_respect_tombstones_across_layers(self):
        root = CowDict()
        root["a"] = 1
        root["b"] = 2
        child = root.fork()
        del child["a"]
        grandchild = child.fork()
        grandchild["c"] = 3
        assert sorted(grandchild.keys()) == ["b", "c"]

    def test_reassign_after_tombstone(self):
        root = CowDict()
        root["a"] = 1
        child = root.fork()
        del child["a"]
        child["a"] = 9
        assert child["a"] == 9


class _ListLog:
    """A read log that keeps every record, duplicates included."""

    def __init__(self):
        self.reads = []

    def record(self, domain, key, value):
        self.reads.append((domain, key, value))


class TestRecording:
    def test_logs_only_reads_that_escape_the_layer(self):
        root = CowDict()
        root["a"] = 1
        log = _ListLog()
        layer = root.fork(log, "d")
        assert isinstance(layer, RecordingCowDict)
        assert layer.get("a") == 1
        assert layer.get("missing", 7) == 7
        layer["a"] = 2
        assert layer["a"] == 2  # satisfied inside the layer: not logged
        assert log.reads == [("d", "a", 1), ("d", "missing", None)]

    def test_fork_records_into_the_same_log(self):
        root = CowDict()
        root["a"] = 1
        log = _ListLog()
        layer = root.fork(log, "d")
        layer["b"] = 2
        child = layer.fork()
        assert isinstance(child, RecordingCowDict)
        assert child["b"] == 2
        assert child["a"] == 1
        assert log.reads == [("d", "a", 1)]

    def test_writes_extract_a_deletion_as_none(self):
        root = CowDict()
        root["a"] = 1
        layer = root.fork(_ListLog(), "d")
        layer["b"] = 2
        del layer["a"]
        assert layer.writes() == [("b", 2), ("a", None)]
        assert root["a"] == 1

    def test_store_replays_writes_as_a_commit_would(self):
        root = CowDict()
        root["a"] = 1
        root["b"] = 2
        fork = root.fork(_ListLog(), "d")
        fork["b"] = 3
        fork["c"] = 4
        del fork["a"]
        sibling = root.fork()
        sibling.store(fork.writes())
        replayed = sorted(sibling.items())
        fork.commit()
        assert replayed == sorted(root.items()) == [("b", 3), ("c", 4)]


def test_layer_storage_stays_inside_cow():
    """Only ``cow.py`` touches a layer's ``_local`` dict or its tombstone."""
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "cow.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "_local") or (
                isinstance(node, ast.ImportFrom)
                and any(alias.name == "_TOMBSTONE" for alias in node.names)
            ):
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert offenders == []
