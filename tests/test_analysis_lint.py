"""Project linter tests: every rule flags its planted violation."""

import json
import os

import pytest

from repro.analysis.atomic_io import atomic_write_json, atomic_write_text
from repro.analysis.lint import (
    RULES,
    iter_python_files,
    lint_paths,
    lint_source,
    main,
)


def rules_of(findings):
    return {f.rule for f in findings}


class TestRngDiscipline:
    def test_flags_legacy_global_rng(self):
        src = "import numpy as np\nnp.random.seed(42)\n"
        findings = lint_source(src, "x.py")
        assert rules_of(findings) == {"rng-discipline"}
        assert "np.random.seed" in findings[0].message

    def test_flags_numpy_spelling(self):
        src = "import numpy\nnumpy.random.random(3)\n"
        assert rules_of(lint_source(src, "x.py")) == {"rng-discipline"}

    def test_allows_default_rng(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.random()\n"
            "ss = np.random.SeedSequence(1)\n"
        )
        assert lint_source(src, "x.py") == []


class TestBareAssert:
    def test_flags_assert(self):
        findings = lint_source("def f(x):\n    assert x > 0\n", "x.py")
        assert rules_of(findings) == {"bare-assert"}
        assert findings[0].line == 2

    def test_raise_is_fine(self):
        src = "def f(x):\n    if x <= 0:\n        raise ValueError(x)\n"
        assert lint_source(src, "x.py") == []


class TestAtomicWrite:
    def test_flags_plain_write(self):
        src = (
            "import json\n"
            "def save(path, obj):\n"
            "    with open(path, 'w') as f:\n"
            "        json.dump(obj, f)\n"
        )
        assert rules_of(lint_source(src, "x.py")) == {"atomic-write"}

    def test_replace_in_same_function_ok(self):
        src = (
            "import os\n"
            "def save(path, text):\n"
            "    with open(path + '.tmp', 'w') as f:\n"
            "        f.write(text)\n"
            "    os.replace(path + '.tmp', path)\n"
        )
        assert lint_source(src, "x.py") == []

    def test_replace_in_other_function_not_enough(self):
        src = (
            "import os\n"
            "def save(path, text):\n"
            "    with open(path, 'w') as f:\n"
            "        f.write(text)\n"
            "def unrelated(a, b):\n"
            "    os.replace(a, b)\n"
        )
        assert rules_of(lint_source(src, "x.py")) == {"atomic-write"}

    def test_read_mode_ignored(self):
        src = "def load(path):\n    with open(path) as f:\n        return f.read()\n"
        assert lint_source(src, "x.py") == []


class TestMutableDefault:
    def test_flags_list_default(self):
        findings = lint_source("def f(x, acc=[]):\n    return acc\n", "x.py")
        assert rules_of(findings) == {"mutable-default"}

    def test_flags_dict_call_default(self):
        src = "def f(cfg=dict()):\n    return cfg\n"
        assert rules_of(lint_source(src, "x.py")) == {"mutable-default"}

    def test_none_default_ok(self):
        src = "def f(x, acc=None):\n    return acc or []\n"
        assert lint_source(src, "x.py") == []

    def test_kwonly_default_checked(self):
        src = "def f(*, acc={}):\n    return acc\n"
        assert rules_of(lint_source(src, "x.py")) == {"mutable-default"}


class TestLockDiscipline:
    TWO_MUTATORS = (
        "_CACHE = {}\n"
        "def put(k, v):\n"
        "    _CACHE[k] = v\n"
        "def drop(k):\n"
        "    _CACHE.pop(k, None)\n"
    )

    def test_flags_unlocked_shared_container(self):
        findings = lint_source(self.TWO_MUTATORS, "x.py")
        assert rules_of(findings) == {"lock-discipline"}
        assert "_CACHE" in findings[0].message
        assert "drop" in findings[0].message and "put" in findings[0].message

    def test_lock_in_module_silences(self):
        src = "import threading\n_LOCK = threading.Lock()\n" + self.TWO_MUTATORS
        assert lint_source(src, "x.py") == []

    def test_single_mutator_ok(self):
        src = "_CACHE = {}\ndef put(k, v):\n    _CACHE[k] = v\n"
        assert lint_source(src, "x.py") == []

    def test_local_shadow_not_counted(self):
        src = (
            "_CACHE = {}\n"
            "def put(k, v):\n"
            "    _CACHE[k] = v\n"
            "def local_only(k):\n"
            "    _CACHE = {}\n"
            "    _CACHE[k] = 1\n"
        )
        assert lint_source(src, "x.py") == []


class TestSuppressionAndDriver:
    def test_same_line_disable(self):
        src = "def f(acc=[]):  # repro-lint: disable=mutable-default\n    return acc\n"
        assert lint_source(src, "x.py") == []

    def test_disable_all(self):
        src = "def f(acc=[]):  # repro-lint: disable=all\n    return acc\n"
        assert lint_source(src, "x.py") == []

    def test_disable_other_rule_keeps_finding(self):
        src = "def f(acc=[]):  # repro-lint: disable=bare-assert\n    return acc\n"
        assert rules_of(lint_source(src, "x.py")) == {"mutable-default"}

    def test_syntax_error_reported(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert rules_of(findings) == {"syntax-error"}

    def test_rule_filter(self):
        src = "def f(acc=[]):\n    assert acc\n"
        only = lint_source(src, "x.py", rules={"bare-assert"})
        assert rules_of(only) == {"bare-assert"}

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cachedir = tmp_path / "__pycache__"
        cachedir.mkdir()
        (cachedir / "a.cpython-311.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert len(files) == 1 and files[0].endswith("a.py")

    def test_main_json_output_and_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(acc=[]):\n    return acc\n")
        rc = main([str(bad), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["findings"][0]["rule"] == "mutable-default"

    def test_main_clean_exit_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good)]) == 0

    def test_src_tree_is_clean(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        findings = lint_paths([os.path.normpath(root)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_catalog_has_five_rules(self):
        assert len(RULES) >= 5


class TestAtomicIo:
    def test_write_text_roundtrip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [path]  # no tmp leftovers

    def test_failed_json_write_preserves_previous(self, tmp_path):
        path = tmp_path / "data.json"
        atomic_write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"v": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_replace_cleans_tmp(self, tmp_path, monkeypatch):
        path = tmp_path / "data.json"
        atomic_write_json(path, {"v": 1})

        def boom(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(path, "garbage")
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"v": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_json_formatting_options(self, tmp_path):
        path = tmp_path / "fmt.json"
        atomic_write_json(
            path, {"b": 1, "a": 2},
            indent=2, sort_keys=True, trailing_newline=True,
        )
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')


class TestColumnarDiscipline:
    _PATH = "src/repro/optimizers/foo.py"

    def test_flags_topological_in_hot_code(self):
        src = (
            "def cancel(dag):\n"
            "    return [n for n in dag.topological()]\n"
        )
        findings = lint_source(src, self._PATH)
        assert rules_of(findings) == {"columnar-discipline"}
        assert ".topological()" in findings[0].message

    def test_flags_nodes_iteration(self):
        src = (
            "def scan(dag):\n"
            "    for n in dag.nodes():\n"
            "        pass\n"
        )
        assert rules_of(lint_source(src, self._PATH)) == {
            "columnar-discipline"
        }

    def test_reference_functions_exempt(self):
        src = (
            "def cancel_reference(dag):\n"
            "    return [n for n in dag.topological()]\n"
        )
        assert lint_source(src, self._PATH) == []

    def test_nested_in_reference_exempt(self):
        src = (
            "def cancel_reference(dag):\n"
            "    def inner():\n"
            "        return list(dag.nodes())\n"
            "    return inner()\n"
        )
        assert lint_source(src, self._PATH) == []

    def test_other_packages_exempt(self):
        src = (
            "def walk(dag):\n"
            "    return list(dag.topological())\n"
        )
        assert lint_source(src, "src/repro/circuits/dag.py") == []

    def test_suppression_comment_honored(self):
        src = (
            "def cancel(dag):\n"
            "    return list(dag.topological())"
            "  # repro-lint: disable=columnar-discipline\n"
        )
        assert lint_source(src, self._PATH) == []
