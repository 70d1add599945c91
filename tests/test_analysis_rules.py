"""simlint: each SIM rule catches its seeded violation and passes the
clean idiom; pragmas, config, reporters, and the CLI behave."""

import json
from pathlib import Path

import pytest

from repro.analysis import (LintConfig, PARSE_RULE, RULES, check_paths,
                            check_source, parse_pragmas, render_json,
                            render_sarif, render_text, rule_docs)
from repro.analysis.__main__ import main as simlint_main
from repro.analysis.config import FALLBACK_SHARED_EXCLUDE, load_pyproject
from repro.analysis.config import _tiny_toml
from repro.analysis.rules import _EVENT_CLASSES

REPO = Path(__file__).resolve().parent.parent

SIM_PATH = "src/repro/sim/somefile.py"
SERVING_PATH = "src/repro/serving/somefile.py"


def rules_of(source, path=SIM_PATH, **kwargs):
    return [f.rule for f in check_source(source, path=path, **kwargs)]


# --------------------------------------------------------------------- #
# one caught violation + one clean idiom per rule
# --------------------------------------------------------------------- #
class TestSIM001WallClock:
    def test_time_time_is_caught(self):
        assert rules_of("import time\nt = time.time()\n") == ["SIM001"]

    def test_from_import_alias_is_caught(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        assert rules_of(src) == ["SIM001"]

    def test_datetime_now_is_caught(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert rules_of(src) == ["SIM001"]

    def test_sim_clock_usage_is_clean(self):
        src = ("from repro.sim import SimClock\n"
               "def f(clock: SimClock) -> float:\n"
               "    return clock.now\n")
        assert rules_of(src) == []

    def test_locally_defined_time_is_clean(self):
        # `self.time()` is not the time module
        src = "def f(self):\n    return self.time()\n"
        assert rules_of(src) == []


class TestSIM002GlobalRng:
    def test_random_module_call_is_caught(self):
        assert rules_of("import random\nx = random.random()\n") == ["SIM002"]

    def test_np_random_legacy_is_caught(self):
        src = "import numpy as np\nnp.random.shuffle([1, 2])\n"
        assert rules_of(src) == ["SIM002"]

    def test_argless_default_rng_is_caught(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(src) == ["SIM002"]

    def test_seeded_default_rng_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert rules_of(src) == []

    def test_generator_method_is_clean(self):
        # drawing from a local Generator is exactly the sanctioned idiom
        src = "def f(rng):\n    return rng.random()\n"
        assert rules_of(src) == []

    def test_rule_only_applies_in_scoped_trees(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(src, path="src/repro/evaluation/x.py") == []


class TestSIM003SetOrder:
    def test_set_iteration_into_push_is_caught(self):
        src = "def f(q, xs):\n    for x in set(xs):\n        q.push(x)\n"
        assert rules_of(src) == ["SIM003"]

    def test_dict_keys_into_emit_is_caught(self):
        src = ("def f(kernel, d):\n"
               "    for k in d.keys():\n"
               "        kernel.emit(k)\n")
        assert rules_of(src) == ["SIM003"]

    def test_sum_over_set_is_caught(self):
        src = "def f(xs):\n    return sum(x * 2.0 for x in set(xs))\n"
        assert rules_of(src) == ["SIM003"]

    def test_set_into_lru_move_to_end_is_caught(self):
        # the engines' old LRU touch: a hash-ordered str set deciding
        # the order of an OrderedDict, hence later evictions
        src = ("def f(self, admitted):\n"
               "    for m in {r.model_id for r in self.running + admitted}:\n"
               "        if m in self._resident:\n"
               "            self._resident.move_to_end(m)\n")
        assert rules_of(src, path=SERVING_PATH) == ["SIM003"]

    def test_insertion_ordered_dict_into_move_to_end_is_clean(self):
        src = ("def f(self, admitted):\n"
               "    for m in self.batch.per_model:\n"
               "        self._resident.move_to_end(m)\n"
               "    for r in admitted:\n"
               "        self._resident.move_to_end(r.model_id)\n")
        assert rules_of(src, path=SERVING_PATH) == []

    def test_sorted_wrapper_is_clean(self):
        src = ("def f(q, xs):\n"
               "    for x in sorted(set(xs)):\n"
               "        q.push(x)\n")
        assert rules_of(src) == []

    def test_set_iteration_without_sink_is_clean(self):
        src = "def f(xs):\n    return {x for x in set(xs)}\n"
        assert rules_of(src) == []


class TestSIM004ClockMutation:
    def test_now_assignment_is_caught(self):
        src = "def f(self, t):\n    self.now = t\n"
        assert rules_of(src, path=SERVING_PATH) == ["SIM004"]

    def test_clock_suffix_augassign_is_caught(self):
        src = "def f(self, dt):\n    self.engine_clock += dt\n"
        assert rules_of(src, path=SERVING_PATH) == ["SIM004"]

    def test_reseat_is_clean(self):
        src = "def f(self, t):\n    self._sim.reseat(t)\n"
        assert rules_of(src, path=SERVING_PATH) == []

    def test_clock_py_is_exempt(self):
        src = "def f(self, t):\n    self.now = t\n"
        assert rules_of(src, path="src/repro/sim/clock.py") == []


class TestSIM005Heapq:
    def test_import_heapq_is_caught(self):
        assert rules_of("import heapq\n") == ["SIM005"]

    def test_from_heapq_import_is_caught(self):
        assert rules_of("from heapq import heappush\n") == ["SIM005"]

    def test_queue_py_is_exempt(self):
        assert rules_of("import heapq\n",
                        path="src/repro/sim/queue.py") == []

    def test_keyed_heap_usage_is_clean(self):
        src = ("from repro.sim import KeyedHeap\n"
               "def f(h: KeyedHeap) -> None:\n"
               "    h.push((0.0, 1), 'item')\n")
        assert rules_of(src) == []


class TestSIM006TimeEquality:
    def test_eq_on_time_values_is_caught(self):
        src = "def f(a_s, b_s):\n    return a_s == b_s\n"
        assert rules_of(src) == ["SIM006"]

    def test_neq_on_time_attribute_is_caught(self):
        src = "def f(self, t):\n    return self.finish_s != t\n"
        assert rules_of(src) == ["SIM006"]

    def test_ordering_comparison_is_clean(self):
        src = "def f(a_s, b_s):\n    return a_s <= b_s\n"
        assert rules_of(src) == []

    def test_none_check_is_clean(self):
        src = "def f(a_s):\n    return a_s == None\n"
        assert rules_of(src) == []

    def test_non_time_names_are_clean(self):
        src = "def f(count, n):\n    return count == n\n"
        assert rules_of(src) == []


class TestSIM007MutableDefault:
    def test_list_default_is_caught(self):
        src = "def f(x, acc=[]):\n    acc.append(x)\n"
        assert rules_of(src) == ["SIM007"]

    def test_kwonly_dict_default_is_caught(self):
        src = "def f(x, *, cache={}):\n    cache[x] = x\n"
        assert rules_of(src) == ["SIM007"]

    def test_dataclass_mutable_field_is_caught(self):
        src = ("from dataclasses import dataclass\n"
               "@dataclass\nclass C:\n    xs: list = []\n")
        assert rules_of(src) == ["SIM007"]

    def test_field_default_factory_is_clean(self):
        src = ("from dataclasses import dataclass, field\n"
               "@dataclass\nclass C:\n"
               "    xs: list = field(default_factory=list)\n")
        assert rules_of(src) == []

    def test_none_default_is_clean(self):
        src = "def f(x, acc=None):\n    acc = acc or []\n"
        assert rules_of(src) == []


class TestSIM008EventRouting:
    def test_unrouted_event_is_caught(self):
        src = ("def f(log):\n"
               "    ev = Cancel(time=1.0, request_id=3)\n"
               "    log.record(ev)\n")
        assert rules_of(src, path=SERVING_PATH) == ["SIM008"]

    def test_direct_emit_is_clean(self):
        src = "def f(kernel):\n    kernel.emit(Cancel(time=1.0, request_id=3))\n"
        assert rules_of(src, path=SERVING_PATH) == []

    def test_named_then_emitted_is_clean(self):
        src = ("def f(kernel):\n"
               "    ev = Cancel(time=1.0, request_id=3)\n"
               "    kernel.emit(ev)\n")
        assert rules_of(src, path=SERVING_PATH) == []

    def test_factory_return_is_clean(self):
        src = "def make(t):\n    return Arrival(time=t)\n"
        assert rules_of(src, path=SERVING_PATH) == []

    def test_rule_scoped_to_sim_and_serving(self):
        src = "def f(log):\n    log.record(Cancel(time=1.0))\n"
        assert rules_of(src, path="src/repro/workload/x.py") == []

    def test_event_class_list_tracks_sim_events(self):
        # the rule's class set must not drift from repro.sim.events
        from repro.sim import events
        actual = {name for name in events.__all__ if name != "Event"}
        assert _EVENT_CLASSES == frozenset(actual)


# --------------------------------------------------------------------- #
# parse failures, pragmas, config
# --------------------------------------------------------------------- #
class TestEngine:
    def test_syntax_error_yields_sim000(self):
        findings = check_source("def f(:\n", path="bad.py")
        assert [f.rule for f in findings] == [PARSE_RULE]

    def test_findings_sorted_by_location(self):
        src = ("import heapq\n"
               "import time\n"
               "t = time.time()\n")
        findings = check_source(src, path=SIM_PATH)
        assert [f.rule for f in findings] == ["SIM005", "SIM001"]
        assert [f.line for f in findings] == [1, 3]

    def test_render_is_clickable(self):
        finding = check_source("import heapq\n", path=SIM_PATH)[0]
        assert finding.render().startswith(f"{SIM_PATH}:1:0: SIM005 ")


class TestPragmas:
    def test_line_pragma_suppresses_named_rule(self):
        src = "import heapq  # simlint: disable=SIM005\n"
        assert rules_of(src) == []

    def test_line_pragma_does_not_suppress_other_rules(self):
        src = "import heapq  # simlint: disable=SIM001\n"
        assert rules_of(src) == ["SIM005"]

    def test_bare_disable_suppresses_all_on_line(self):
        src = "import heapq  # simlint: disable\n"
        assert rules_of(src) == []

    def test_file_pragma(self):
        src = ("# simlint: disable-file=SIM005\n"
               "import heapq\n"
               "import heapq as h2\n")
        assert rules_of(src) == []

    def test_pragma_in_string_literal_is_inert(self):
        src = ('x = "# simlint: disable=SIM005"\n'
               "import heapq\n")
        assert rules_of(src) == ["SIM005"]

    def test_parse_pragmas_shapes(self):
        pragmas = parse_pragmas(
            "# simlint: disable-file=SIM001\n"
            "x = 1  # simlint: disable=SIM005, SIM006\n")
        assert pragmas.suppressed("SIM001", 99)
        assert pragmas.suppressed("SIM005", 2)
        assert pragmas.suppressed("SIM006", 2)
        assert not pragmas.suppressed("SIM005", 1)


class TestConfig:
    def test_select_narrows_rules(self):
        config = LintConfig(select=frozenset({"SIM001"}))
        src = "import heapq\nimport time\nt = time.time()\n"
        assert rules_of(src, config=config) == ["SIM001"]

    def test_ignore_drops_rules(self):
        config = LintConfig(ignore=frozenset({"SIM005"}))
        assert rules_of("import heapq\n", config=config) == []

    def test_per_path_ignore(self):
        config = LintConfig(per_path_ignore=(
            ("src/repro/sim", frozenset({"SIM005"})),))
        assert rules_of("import heapq\n", config=config) == []
        assert rules_of("import heapq\n", config=config,
                        path=SERVING_PATH) == ["SIM005"]

    def test_exclusion_list_is_shared_with_ruff(self):
        # THE contract: simlint's exclusions come from the same
        # [tool.ruff] extend-exclude key ruff reads, so the two linters
        # cannot drift apart
        pyproject = REPO / "pyproject.toml"
        tables = load_pyproject(pyproject)
        ruff_exclude = tables["tool.ruff"]["extend-exclude"]
        config = LintConfig.load(start=REPO / "src")
        assert tuple(ruff_exclude) == config.exclude[:len(ruff_exclude)]
        assert "benchmarks" in config.exclude
        assert "examples" in config.exclude

    def test_tiny_toml_fallback_agrees_with_tomllib(self):
        # Python 3.10 has no tomllib; the subset parser must read the
        # shared exclusion list identically
        text = (REPO / "pyproject.toml").read_text()
        tiny = _tiny_toml(text)
        full = load_pyproject(REPO / "pyproject.toml")
        assert tiny["tool.ruff"]["extend-exclude"] == \
            full["tool.ruff"]["extend-exclude"]

    def test_excluded_paths_are_not_linted(self, tmp_path):
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bad.py").write_text("import heapq\nimport time\n"
                                      "t = time.time()\n")
        config = LintConfig(exclude=FALLBACK_SHARED_EXCLUDE)
        assert check_paths([str(tmp_path)], config=config) == []


# --------------------------------------------------------------------- #
# reporters + CLI
# --------------------------------------------------------------------- #
class TestReporters:
    def _findings(self):
        return check_source("import heapq\n", path=SIM_PATH)

    def test_text_has_line_per_finding_and_summary(self):
        out = render_text(self._findings())
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1] == "simlint: 1 finding"

    def test_json_roundtrips(self):
        payload = json.loads(render_json(self._findings()))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "SIM005"
        assert set(payload["rules"]) == {r.id for r in RULES}

    def test_sarif_shape(self):
        doc = json.loads(render_sarif(self._findings()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        result = run["results"][0]
        assert result["ruleId"] == "SIM005"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == SIM_PATH
        assert location["region"]["startLine"] == 1

    def test_rule_docs_cover_all_rules(self):
        docs = dict(rule_docs())
        assert sorted(docs) == [f"SIM00{i}" for i in range(1, 9)]
        assert all(docs.values())


class TestCli:
    def _violation_file(self, tmp_path):
        path = tmp_path / "src" / "repro" / "sim" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text("import heapq\n")
        return path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert simlint_main([str(path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = self._violation_file(tmp_path)
        assert simlint_main([str(path)]) == 1
        assert "SIM005" in capsys.readouterr().out

    def test_fail_on_findings_flag(self, tmp_path, capsys):
        path = self._violation_file(tmp_path)
        assert simlint_main([str(path), "--fail-on-findings"]) == 1
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        path = self._violation_file(tmp_path)
        assert simlint_main([str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_ignore_flag(self, tmp_path, capsys):
        path = self._violation_file(tmp_path)
        assert simlint_main([str(path), "--ignore", "SIM005"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert simlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SIM001" in out and "SIM008" in out
