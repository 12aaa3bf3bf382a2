"""Self-test harness for the engine source lint (``repro.statics.lint``).

Every rule is pinned twice: it must *fire* on its seeded bad fixture under
``tests/fixtures/lint/`` and must stay *silent* on the matching good
fixture — so a rule that silently stops matching (an AST shape drifted, a
registry entry was dropped) fails CI, exactly like a regression test for
runtime code.  The suite also pins the repository-wide contract: linting
``src/repro`` itself reports nothing.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.statics.lint import ALL_CODES, lint_paths, lint_source, main
from repro.statics.registry import GUARDED_CLASSES, POOL_BOUNDARY_CLASSES

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parent.parent / "src" / "repro"

RULE_FIXTURES = {
    "REP001": ("engine/bad_assert.py", "engine/good_assert.py"),
    "REP002": ("bad_shm.py", "good_shm.py"),
    "REP003": ("bad_lock.py", "good_lock.py"),
    "REP004": ("bad_wallclock.py", "good_wallclock.py"),
    "REP005": ("bad_pickle.py", "good_pickle.py"),
    "REP006": ("bad_tempwrite.py", "good_tempwrite.py"),
}


def _lint_fixture(name, select):
    path = FIXTURES / name
    return lint_source(path.read_text(), str(path), select=select)


class TestRulesFireOnFixtures:
    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_rule_fires_on_bad_fixture(self, code):
        bad, _good = RULE_FIXTURES[code]
        findings = _lint_fixture(bad, select=[code])
        assert findings, f"{code} did not fire on {bad}"
        assert all(f.code == code for f in findings)

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_rule_silent_on_good_fixture(self, code):
        _bad, good = RULE_FIXTURES[code]
        findings = _lint_fixture(good, select=[code])
        assert findings == [], [f.render() for f in findings]

    def test_all_codes_have_fixtures(self):
        assert set(RULE_FIXTURES) == set(ALL_CODES)

    def test_expected_finding_counts(self):
        # Pin the exact hit counts so a rule that *partially* stops
        # matching (fires once instead of thrice) is also caught.
        expected = {
            "REP001": 2,  # two bare asserts
            "REP002": 2,  # dropped binding + discarded call
            "REP003": 3,  # write, racy read, closure escape
            "REP004": 3,  # deadline arith, compare, attribute deadline
            "REP005": 3,  # lambda, lock, open file
            "REP006": 2,  # published-not-cleaned mkstemp, abandoned mkdtemp
        }
        for code, count in expected.items():
            bad, _ = RULE_FIXTURES[code]
            assert len(_lint_fixture(bad, select=[code])) == count, code


class TestRuleDetails:
    def test_rep001_only_applies_under_engine_paths(self):
        source = "def f(x):\n    assert x\n"
        assert lint_source(source, "src/repro/engine/foo.py", select=["REP001"])
        assert not lint_source(source, "src/repro/circuits/foo.py", select=["REP001"])

    def test_rep003_registry_drives_the_rule(self):
        # The same source under an unregistered class name is silent.
        bad = (FIXTURES / "bad_lock.py").read_text()
        renamed = bad.replace("EvaluationService", "SomeOtherService")
        assert lint_source(bad, "x.py", select=["REP003"])
        assert not lint_source(renamed, "x.py", select=["REP003"])

    def test_rep005_registry_drives_the_rule(self):
        bad = (FIXTURES / "bad_pickle.py").read_text()
        renamed = bad.replace("_SegmentProgram", "FreeClass")
        assert lint_source(bad, "x.py", select=["REP005"])
        assert not lint_source(renamed, "x.py", select=["REP005"])

    def test_rep006_registry_drives_the_rule(self):
        # A factory name outside the registry is not a temp artifact.
        bad = (FIXTURES / "bad_tempwrite.py").read_text()
        renamed = bad.replace("tempfile.mkstemp", "tempfile.other").replace(
            "tempfile.mkdtemp", "tempfile.another"
        )
        assert lint_source(bad, "x.py", select=["REP006"])
        assert not lint_source(renamed, "x.py", select=["REP006"])

    def test_rep006_cleanup_without_publication_is_fine(self):
        # Pure-scratch temp use: cleanup alone satisfies the rule.
        source = (
            "import tempfile, shutil\n"
            "def scratch():\n"
            "    d = tempfile.mkdtemp()\n"
            "    shutil.rmtree(d)\n"
        )
        assert not lint_source(source, "x.py", select=["REP006"])

    def test_suppression_comment(self):
        flagged = "import time\ndeadline = time.time() + 5\n"
        assert lint_source(flagged, "x.py", select=["REP004"])
        suppressed = (
            "import time\ndeadline = time.time() + 5  # statics: ignore[REP004]\n"
        )
        assert not lint_source(suppressed, "x.py", select=["REP004"])
        blanket = "import time\ndeadline = time.time() + 5  # statics: ignore\n"
        assert not lint_source(blanket, "x.py", select=["REP004"])
        other_code = (
            "import time\ndeadline = time.time() + 5  # statics: ignore[REP001]\n"
        )
        assert lint_source(other_code, "x.py", select=["REP004"])

    def test_registry_matches_real_classes(self):
        # The registry names must exist in the engine source, or the lock
        # and pickle rules silently guard nothing.
        service_src = (SRC / "engine" / "service.py").read_text()
        for name in GUARDED_CLASSES:
            assert f"class {name}" in service_src, name
        backends_src = (SRC / "engine" / "backends.py").read_text()
        for name in POOL_BOUNDARY_CLASSES:
            assert f"class {name}" in backends_src, name

    def test_every_program_class_is_registered(self):
        # The converse: a class in the backends module that defines ``run``
        # is a program shipped to workers, so a renamed or added one must
        # join the registry or the pickle rule stops guarding it.
        tree = ast.parse((SRC / "engine" / "backends.py").read_text())
        programs = {
            node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(
                isinstance(item, ast.FunctionDef) and item.name == "run"
                for item in node.body
            )
            # The CompiledProgram protocol declares run but is never shipped.
            and not any(getattr(base, "id", None) == "Protocol" for base in node.bases)
        }
        assert programs, "no program classes found in engine/backends.py"
        assert programs <= POOL_BOUNDARY_CLASSES, programs - POOL_BOUNDARY_CLASSES


class TestRepositoryContract:
    def test_src_repro_is_clean(self):
        findings = lint_paths([str(SRC)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.statics.lint", str(FIXTURES / "bad_shm.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "REP002" in proc.stdout

    def test_main_exit_codes(self, capsys):
        assert main([str(FIXTURES / "good_shm.py")]) == 0
        assert main([str(FIXTURES / "bad_shm.py"), "--select", "REP002"]) == 1
        out = capsys.readouterr().out
        assert "REP002" in out and "finding(s)" in out

    def test_unknown_code_rejected(self):
        with pytest.raises(SystemExit):
            main([str(FIXTURES), "--select", "REP999"])
