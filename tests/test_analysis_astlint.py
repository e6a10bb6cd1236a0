"""Tests for the repo-specific AST lint pass."""

import textwrap

from repro.analysis import lint_paths, lint_source


def lint(code, path="src/repro/plugins/x.py"):
    return lint_source(textwrap.dedent(code), path=path)


def codes(diags):
    return [d.code for d in diags]


class TestWallClock:
    def test_time_time_in_simulator_flagged(self):
        diags = lint(
            "import time\nts = time.time()\n",
            path="src/repro/simulator/x.py",
        )
        assert codes(diags) == ["L002"]

    def test_time_monotonic_in_plugins_flagged(self):
        diags = lint(
            "import time\nts = time.monotonic()\n",
            path="src/repro/plugins/x.py",
        )
        assert codes(diags) == ["L002"]

    def test_outside_scoped_dirs_allowed(self):
        diags = lint(
            "import time\nts = time.time()\n",
            path="src/repro/core/x.py",
        )
        assert diags == []

    def test_perf_counter_allowed(self):
        # perf_counter_ns is the sanctioned busy-time instrumentation.
        diags = lint(
            "import time\nts = time.perf_counter_ns()\n",
            path="src/repro/simulator/x.py",
        )
        assert diags == []


class TestSilentExcept:
    def test_except_exception_pass(self):
        diags = lint("""
        try:
            risky()
        except Exception:
            pass
        """)
        assert codes(diags) == ["L003"]

    def test_bare_except_pass(self):
        diags = lint("""
        try:
            risky()
        except:
            pass
        """)
        assert codes(diags) == ["L003"]

    def test_handled_exception_ok(self):
        diags = lint("""
        try:
            risky()
        except Exception as exc:
            log(exc)
        """)
        assert diags == []

    def test_narrow_except_pass_ok(self):
        diags = lint("""
        try:
            risky()
        except KeyError:
            pass
        """)
        assert diags == []


class TestComputeState:
    def test_self_write_in_compute_unit_flagged(self):
        diags = lint("""
        from repro.core.registry import operator_plugin

        @operator_plugin("x")
        class XOperator:
            def compute_unit(self, unit, ts):
                self.state = 1
                return {}
        """)
        assert codes(diags) == ["L004"]

    def test_subscript_write_flagged(self):
        diags = lint("""
        class XOperator(OperatorBase):
            def compute_unit(self, unit, ts):
                self.counts[unit.name] = 1
                return {}
        """)
        assert codes(diags) == ["L004"]

    def test_model_state_ok(self):
        diags = lint("""
        class XOperator(OperatorBase):
            def compute_unit(self, unit, ts):
                model = self.model_for(unit)
                model["n"] = 1
                return {}
        """)
        assert diags == []

    def test_only_applies_to_plugin_dirs(self):
        diags = lint("""
        class XOperator(OperatorBase):
            def compute_unit(self, unit, ts):
                self.state = 1
                return {}
        """, path="src/repro/core/operator.py")
        assert diags == []

    def test_non_compute_methods_ok(self):
        diags = lint("""
        class XOperator(OperatorBase):
            def configure(self):
                self.state = 1
        """)
        assert diags == []


class TestThreadLifecycle:
    def test_thread_without_daemon_or_join_flagged(self):
        diags = lint("""
        import threading

        class Runner:
            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()
        """, path="src/repro/core/x.py")
        assert codes(diags) == ["L005"]
        assert "daemon" in diags[0].message

    def test_daemon_kwarg_ok(self):
        diags = lint("""
        import threading

        class Runner:
            def start(self):
                self._thread = threading.Thread(
                    target=self._loop, daemon=True
                )
                self._thread.start()
        """, path="src/repro/core/x.py")
        assert diags == []

    def test_join_in_same_class_ok(self):
        diags = lint("""
        import threading

        class Runner:
            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def stop(self):
                self._thread.join()
        """, path="src/repro/core/x.py")
        assert diags == []

    def test_str_join_does_not_count(self):
        diags = lint("""
        import threading

        class Runner:
            def start(self):
                self._thread = threading.Thread(target=self._loop)
                self._thread.start()

            def label(self, parts):
                return ", ".join(parts)
        """, path="src/repro/core/x.py")
        assert codes(diags) == ["L005"]

    def test_module_level_thread_flagged(self):
        diags = lint("""
        import threading

        worker = threading.Thread(target=run)
        worker.start()
        """, path="src/repro/core/x.py")
        assert codes(diags) == ["L005"]

    def test_suppression(self):
        diags = lint("""
        import threading

        class Runner:
            def start(self):
                t = threading.Thread(target=run)  # wintermute: ignore[L005]
                t.start()
        """, path="src/repro/core/x.py")
        assert diags == []


class TestSleepInCompute:
    def test_sleep_in_compute_unit_flagged(self):
        diags = lint("""
        import time
        from repro.core.registry import operator_plugin

        @operator_plugin("x")
        class XOperator:
            def compute_unit(self, unit, ts):
                time.sleep(0.1)
                return {}
        """, path="src/repro/core/x.py")
        assert codes(diags) == ["L006"]
        assert "sleep" in diags[0].message

    def test_bare_sleep_flagged(self):
        diags = lint("""
        from time import sleep

        class XOperator(OperatorBase):
            def trigger(self, ts):
                sleep(1)
        """, path="src/repro/core/x.py")
        assert codes(diags) == ["L006"]

    def test_sleep_outside_compute_path_ok(self):
        diags = lint("""
        import time

        class XOperator(OperatorBase):
            def wait_for_warmup(self):
                time.sleep(0.1)
        """, path="src/repro/core/x.py")
        assert diags == []

    def test_sleep_in_non_operator_class_ok(self):
        diags = lint("""
        import time

        class Driver:
            def compute(self):
                time.sleep(0.1)
        """, path="src/repro/core/x.py")
        assert diags == []

    def test_suppression(self):
        diags = lint("""
        import time

        class XOperator(OperatorBase):
            def compute_unit(self, unit, ts):
                time.sleep(0.1)  # wintermute: ignore[L006]
                return {}
        """, path="src/repro/core/x.py")
        assert diags == []


class TestMutableClassDefault:
    def test_list_default_flagged(self):
        diags = lint("""
        class XOperator(OperatorBase):
            history = []

            def compute_unit(self, unit, ts):
                return {}
        """)
        assert codes(diags) == ["L008"]
        assert "history" in diags[0].message

    def test_dict_and_constructor_flagged(self):
        diags = lint("""
        class XOperator(OperatorBase):
            cache = {}
            seen = set()
            by_unit = dict()
        """)
        assert codes(diags) == ["L008", "L008", "L008"]

    def test_annotated_default_flagged(self):
        diags = lint("""
        class XOperator(OperatorBase):
            rows: list = []
        """)
        assert codes(diags) == ["L008"]

    def test_constant_convention_exempt(self):
        diags = lint("""
        class XOperator(OperatorBase):
            _METRICS = {"cpi": ("cpu-cycles", "instructions")}
            DEFAULT_OPS = ["mean", "max"]
        """)
        assert diags == []

    def test_immutable_defaults_not_flagged(self):
        diags = lint("""
        class XOperator(OperatorBase):
            window = 10
            name = "x"
            pair = (1, 2)
        """)
        assert diags == []

    def test_non_plugin_class_not_flagged(self):
        diags = lint("""
        class Registry:
            entries = []
        """)
        assert diags == []

    def test_init_assignment_not_flagged(self):
        diags = lint("""
        class XOperator(OperatorBase):
            def __init__(self):
                self.history = []
        """)
        assert diags == []

    def test_suppression(self):
        diags = lint("""
        class XOperator(OperatorBase):
            shared = []  # wintermute: ignore[L008]
        """)
        assert diags == []


class TestSuppressionAndEntryPoints:
    def test_allow_comment_suppresses(self):
        # On the handler's body line; the except line is
        # test_analysis_concurrency's test_astlint_honors_uniform_marker.
        diags = lint("""
        try:
            risky()
        except Exception:
            pass  # wintermute: ignore[L003]
        """)
        assert diags == []

    def test_allow_wrong_code_does_not_suppress(self):
        diags = lint("""
        try:
            risky()
        except Exception:
            pass  # wintermute: ignore[L004]
        """)
        assert codes(diags) == ["L003"]

    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def broken(:\n", path="x.py")
        assert codes(diags) == ["L000"]

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "plugins"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "try:\n    x()\nexcept Exception:\n    pass\n"
        )
        (pkg / "good.py").write_text("x = 1\n")
        diags = lint_paths([str(tmp_path)])
        assert codes(diags) == ["L003"]
        assert diags[0].file.endswith("bad.py")

    def test_repo_tree_is_clean(self):
        import os

        import repro

        pkg_dir = os.path.dirname(os.path.abspath(repro.__file__))
        assert lint_paths([pkg_dir]) == []
