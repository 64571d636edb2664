"""Tests for the AST invariant linter (`repro lint`, :mod:`repro.analysis`).

Every rule gets three fixtures — one violating, one clean, one
pragma-suppressed — plus the regressions the rules exist for: a
``FlowConfig`` field absent from every ``_STAGE_KEYS`` tuple must be
flagged, and the real source tree must lint clean (the same gate CI runs
blocking).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Finding,
    LintReport,
    default_rules,
    lint_paths,
    lint_source,
    rules_by_name,
)
from repro.analysis.core import extract_pragmas, module_name_for_path
from repro.cli import main

PACKAGE_DIR = Path(repro.__file__).parent

FLOW_MODULE = "repro.flow.fixture"
OUTSIDE_MODULE = "repro.reporting.fixture"


def findings_for(text: str, rule: str, module: str = FLOW_MODULE):
    report = lint_source(text, module=module)
    return [f for f in report.findings if f.rule == rule and not f.suppressed]


# ------------------------------------------------------------------ framework


class TestFramework:
    def test_module_name_for_path(self):
        assert module_name_for_path("src/repro/flow/config.py") == "repro.flow.config"
        assert module_name_for_path("src/repro/flow/__init__.py") == "repro.flow"
        assert module_name_for_path("/tmp/fixture.py") == "fixture"

    def test_pragma_extraction(self):
        text = "x = 1  # repro: allow-determinism -- justified\ny = 2\n"
        assert extract_pragmas(text) == {1: {"determinism"}}

    def test_pragma_suppresses_same_line_and_line_below(self):
        same_line = "import time\nt = time.time()  # repro: allow-determinism\n"
        line_above = (
            "import time\n"
            "# repro: allow-determinism -- lease clock\n"
            "t = time.time()\n"
        )
        for text in (same_line, line_above):
            report = lint_source(text, module=FLOW_MODULE)
            assert not findings_for(text, "determinism")
            assert any(f.rule == "determinism" and f.suppressed for f in report.findings)

    def test_suppressed_findings_still_reported_in_json(self):
        text = "import time\nt = time.time()  # repro: allow-determinism\n"
        data = lint_source(text, module=FLOW_MODULE).to_dict()
        assert data["schema"] == "repro.lint/1"
        assert data["ok"] is True
        assert data["findings"] == []
        assert len(data["suppressed"]) == 1
        assert data["suppressed"][0]["rule"] == "determinism"

    def test_report_round_trips(self):
        text = "import time\nt = time.time()\nu = time.time()  # repro: allow-determinism\n"
        report = lint_source(text, module=FLOW_MODULE)
        rebuilt = LintReport.from_dict(json.loads(report.to_json()))
        assert rebuilt.findings == report.findings
        assert rebuilt.files == report.files
        assert rebuilt.ok == report.ok

    def test_syntax_error_is_reported_not_raised(self):
        report = lint_source("def broken(:\n", path="bad.py")
        assert not report.ok
        assert report.errors and "syntax error" in report.errors[0][1]

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            default_rules(["no-such-rule"])

    def test_registry_names(self):
        assert set(rules_by_name()) == {
            "determinism",
            "digest-completeness",
            "serialization-roundtrip",
            "atomic-write",
            "unordered-iteration",
            "swallowed-exception",
        }


# ------------------------------------------------------------ R1 determinism


class TestDeterminismRule:
    VIOLATIONS = [
        "import time\nt = time.time()\n",
        "import random\nr = random.Random()\n",
        "import random\nx = random.random()\n",
        "import random\nrandom.seed(3)\n",
        "from datetime import datetime\nd = datetime.now()\n",
        "import uuid\nu = uuid.uuid4()\n",
        "import os\nb = os.urandom(8)\n",
        "from time import time\nt = time()\n",
    ]

    @pytest.mark.parametrize("text", VIOLATIONS)
    def test_violations_flagged(self, text):
        assert findings_for(text, "determinism"), text

    def test_bare_reference_flagged(self):
        text = "import time\ndef f(clock=time.time):\n    return clock()\n"
        found = findings_for(text, "determinism")
        assert found and "reference" in found[0].message

    def test_clean_code_passes(self):
        text = (
            "import random\nimport time\n"
            "rng = random.Random(1991)\n"
            "start = time.perf_counter()\n"
            "mono = time.monotonic()\n"
        )
        assert not findings_for(text, "determinism")

    def test_pragma_suppressed(self):
        text = "import uuid\nnonce = uuid.uuid4().hex  # repro: allow-determinism\n"
        assert not findings_for(text, "determinism")

    def test_out_of_scope_module_ignored(self):
        text = "import time\nt = time.time()\n"
        assert not findings_for(text, "determinism", module=OUTSIDE_MODULE)


# ---------------------------------------------------- R2 digest completeness


CONFIG_TEMPLATE = """\
from dataclasses import dataclass

_ASSIGN_KEYS = ("structure", "seed")
_FAULTSIM_KEYS = _ASSIGN_KEYS + ("fault_patterns",)

_STAGE_KEYS = {{
    "assign": _ASSIGN_KEYS,
    "faultsim": _FAULTSIM_KEYS,
}}


@dataclass(frozen=True)
class FlowConfig:
    structure: str = "PST"
    seed: int = 0
    fault_patterns: int = 0
{extra_fields}"""


def config_fixture(extra_fields: str = "") -> str:
    return CONFIG_TEMPLATE.format(extra_fields=extra_fields)


class TestDigestCompletenessRule:
    def test_clean_config_passes(self):
        assert not findings_for(config_fixture(), "digest-completeness")

    def test_missing_field_flagged(self):
        text = config_fixture(extra_fields="    poison_knob: int = 0\n")
        found = findings_for(text, "digest-completeness")
        assert found and "poison_knob" in found[0].message

    def test_typo_in_stage_tuple_flagged(self):
        text = config_fixture().replace('"fault_patterns",', '"fault_pattrens",')
        found = findings_for(text, "digest-completeness")
        messages = " | ".join(f.message for f in found)
        assert "fault_pattrens" in messages  # unknown key
        assert "fault_patterns" in messages  # now-undigested field

    def test_pragma_suppressed(self):
        text = config_fixture(
            extra_fields=(
                "    # repro: allow-digest-completeness -- display-only knob\n"
                "    label: str = ''\n"
            )
        )
        assert not findings_for(text, "digest-completeness")

    def test_real_flow_config_is_clean(self):
        source = (PACKAGE_DIR / "flow" / "config.py").read_text()
        assert not findings_for(source, "digest-completeness", module="repro.flow.config")

    def test_regression_new_flow_config_field_is_caught(self):
        """The cache-poisoning scenario the rule exists for: add a knob to
        the real FlowConfig without touching _STAGE_KEYS and the linter
        must object."""
        source = (PACKAGE_DIR / "flow" / "config.py").read_text()
        poisoned = source.replace(
            "    fault_collapse: bool = False\n",
            "    fault_collapse: bool = False\n    poison_knob: int = 0\n",
        )
        assert poisoned != source, "anchor line moved — update the test"
        found = findings_for(poisoned, "digest-completeness", module="repro.flow.config")
        assert found and "poison_knob" in found[0].message


# ------------------------------------------- R3 serialization round-trip


class TestSerializationRoundTripRule:
    def test_missing_from_dict_flagged(self):
        text = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Payload:\n"
            "    value: int = 0\n"
            "    def to_dict(self):\n"
            "        return {'value': self.value}\n"
        )
        found = findings_for(text, "serialization-roundtrip")
        assert found and "no from_dict" in found[0].message

    def test_uncovered_field_flagged(self):
        text = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Payload:\n"
            "    value: int = 0\n"
            "    extra: str = ''\n"
            "    def to_dict(self):\n"
            "        return {'value': self.value, 'extra': self.extra}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(value=data['value'])\n"
        )
        found = findings_for(text, "serialization-roundtrip")
        assert found and "'extra'" in found[0].message

    def test_covering_from_dict_passes(self):
        text = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Payload:\n"
            "    value: int = 0\n"
            "    extra: str = ''\n"
            "    def to_dict(self):\n"
            "        return {'value': self.value, 'extra': self.extra}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(value=data['value'], extra=data.get('extra', ''))\n"
        )
        assert not findings_for(text, "serialization-roundtrip")

    def test_star_star_expansion_passes(self):
        text = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Payload:\n"
            "    value: int = 0\n"
            "    def to_dict(self):\n"
            "        return {'value': self.value}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(**dict(data))\n"
        )
        assert not findings_for(text, "serialization-roundtrip")

    def test_compare_false_field_exempt(self):
        text = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Payload:\n"
            "    value: int = 0\n"
            "    live: object = field(default=None, compare=False)\n"
            "    def to_dict(self):\n"
            "        return {'value': self.value}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(value=data['value'])\n"
        )
        assert not findings_for(text, "serialization-roundtrip")

    def test_pragma_suppressed(self):
        text = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Summary:  # repro: allow-serialization-roundtrip -- lossy\n"
            "    value: int = 0\n"
            "    def to_dict(self):\n"
            "        return {'doubled': self.value * 2}\n"
        )
        assert not findings_for(text, "serialization-roundtrip")

    def test_non_dataclass_ignored(self):
        text = (
            "class Plain:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        )
        assert not findings_for(text, "serialization-roundtrip")


# ------------------------------------------------------- R4 atomic writes


class TestAtomicWriteRule:
    def test_direct_write_flagged(self):
        text = (
            "import json\n"
            "def save(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
        )
        found = findings_for(text, "atomic-write")
        assert found and "os.replace" in found[0].message

    def test_write_text_flagged(self):
        text = "def save(path, data):\n    path.write_text(data)\n"
        assert findings_for(text, "atomic-write")

    def test_tmp_file_replace_idiom_passes(self):
        text = (
            "import json, os, tempfile\n"
            "def save(path, payload):\n"
            "    fd, tmp = tempfile.mkstemp(dir=path.parent)\n"
            "    with os.fdopen(fd, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
            "    os.replace(tmp, path)\n"
        )
        assert not findings_for(text, "atomic-write")

    def test_read_open_passes(self):
        text = "def load(path):\n    with open(path) as handle:\n        return handle.read()\n"
        assert not findings_for(text, "atomic-write")

    def test_pragma_suppressed(self):
        text = (
            "def save(path, data):\n"
            "    path.write_text(data)  # repro: allow-atomic-write -- log file\n"
        )
        assert not findings_for(text, "atomic-write")

    def test_out_of_scope_module_ignored(self):
        text = "def save(path, data):\n    path.write_text(data)\n"
        assert not findings_for(text, "atomic-write", module=OUTSIDE_MODULE)


# ------------------------------------------------- R5 unordered iteration


class TestUnorderedIterationRule:
    def test_for_over_set_literal_flagged(self):
        text = "def merge():\n    for item in {'b', 'a'}:\n        print(item)\n"
        found = findings_for(text, "unordered-iteration")
        assert found and "sorted()" in found[0].message

    def test_for_over_inferred_set_name_flagged(self):
        text = (
            "def merge(items):\n"
            "    seen = set(items)\n"
            "    out = []\n"
            "    for item in seen:\n"
            "        out.append(item)\n"
            "    return out\n"
        )
        assert findings_for(text, "unordered-iteration")

    def test_list_conversion_flagged(self):
        text = "def freeze(items):\n    return list(set(items))\n"
        assert findings_for(text, "unordered-iteration")

    def test_comprehension_over_set_flagged(self):
        text = "def freeze(items):\n    return [x for x in set(items)]\n"
        assert findings_for(text, "unordered-iteration")

    def test_sorted_iteration_passes(self):
        text = (
            "def merge(items):\n"
            "    seen = set(items)\n"
            "    return [x for x in sorted(seen)]\n"
        )
        assert not findings_for(text, "unordered-iteration")

    def test_membership_and_reductions_pass(self):
        text = (
            "def check(items, probe):\n"
            "    seen = set(items)\n"
            "    return probe in seen and len(seen) > 0 and max(seen) > 1\n"
        )
        assert not findings_for(text, "unordered-iteration")

    def test_reassignment_clears_inference(self):
        text = (
            "def merge(items):\n"
            "    seen = set(items)\n"
            "    seen = sorted(seen)\n"
            "    return [x for x in seen]\n"
        )
        assert not findings_for(text, "unordered-iteration")

    def test_pragma_suppressed(self):
        text = (
            "def merge(items):\n"
            "    # repro: allow-unordered-iteration -- order-free accumulation\n"
            "    return sum(1 for _ in set(items))\n"
        )
        assert not findings_for(text, "unordered-iteration")

    def test_out_of_scope_module_ignored(self):
        text = "def merge(items):\n    return list(set(items))\n"
        assert not findings_for(text, "unordered-iteration", module=OUTSIDE_MODULE)


# --------------------------------------------------------- whole-tree gate


class TestSwallowedExceptionRule:
    def test_bare_pass_flagged(self):
        text = (
            "def release(path):\n"
            "    try:\n"
            "        path.unlink()\n"
            "    except OSError:\n"
            "        pass\n"
        )
        found = findings_for(text, "swallowed-exception")
        assert found and "except OSError" in found[0].message
        assert found[0].line == 4  # anchored at the except line

    def test_continue_and_bare_return_flagged(self):
        loop = (
            "def drain(paths):\n"
            "    for path in paths:\n"
            "        try:\n"
            "            path.unlink()\n"
            "        except OSError:\n"
            "            continue\n"
        )
        bare_return = (
            "def touch(path):\n"
            "    try:\n"
            "        path.touch()\n"
            "    except OSError:\n"
            "        return\n"
        )
        return_none = (
            "def touch(path):\n"
            "    try:\n"
            "        path.touch()\n"
            "    except OSError:\n"
            "        return None\n"
        )
        for text in (loop, bare_return, return_none):
            assert findings_for(text, "swallowed-exception")

    def test_observable_effects_pass(self):
        reraise = (
            "def load(path):\n"
            "    try:\n"
            "        return path.read_text()\n"
            "    except OSError as exc:\n"
            "        raise RuntimeError(path) from exc\n"
        )
        counter = (
            "def load(path, stats):\n"
            "    try:\n"
            "        return path.read_text()\n"
            "    except OSError:\n"
            "        stats.failures += 1\n"
        )
        logging_call = (
            "def load(path, log):\n"
            "    try:\n"
            "        return path.read_text()\n"
            "    except OSError:\n"
            "        log('gone')\n"
        )
        returns_value = (
            "def load(path):\n"
            "    try:\n"
            "        return path.read_text()\n"
            "    except OSError:\n"
            "        return ''\n"
        )
        for text in (reraise, counter, logging_call, returns_value):
            assert not findings_for(text, "swallowed-exception")

    def test_pragma_suppressed(self):
        text = (
            "def release(path):\n"
            "    try:\n"
            "        path.unlink()\n"
            "    except OSError:  # repro: allow-swallowed-exception -- race is the protocol\n"
            "        pass\n"
        )
        assert not findings_for(text, "swallowed-exception")

    def test_out_of_scope_module_ignored(self):
        text = (
            "def release(path):\n"
            "    try:\n"
            "        path.unlink()\n"
            "    except OSError:\n"
            "        pass\n"
        )
        assert not findings_for(text, "swallowed-exception",
                                module=OUTSIDE_MODULE)


class TestTreeGate:
    def test_source_tree_lints_clean(self):
        """The same blocking gate CI runs: zero unsuppressed findings over
        the installed package tree."""
        report = lint_paths([PACKAGE_DIR])
        assert report.ok, "\n" + report.render()
        assert report.files > 50  # the walk really saw the tree

    def test_suppressions_are_justified(self):
        """Every pragma in the tree carries a justification (text after the
        rule name) — bare suppressions are as opaque as the violation."""
        report = lint_paths([PACKAGE_DIR])
        for finding in report.suppressed:
            line = Path(finding.path).read_text().splitlines()[finding.line - 1]
            # The pragma may sit on the finding line or the line above.
            if "repro: allow-" not in line:
                line = Path(finding.path).read_text().splitlines()[finding.line - 2]
            assert "repro: allow-" in line


# ------------------------------------------------------------------- CLI


class TestLintCLI:
    def test_default_invocation_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_json_schema(self, capsys):
        assert main(["lint", "--json", str(PACKAGE_DIR / "flow")]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.lint/1"
        assert data["ok"] is True
        assert set(data["rules"]) == set(rules_by_name())

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "flow" / "fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "determinism" in out and "FAILED" in out

    def test_rule_subset(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "flow" / "fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", "--rules", "atomic-write", str(bad)]) == 0
        capsys.readouterr()

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--rules", "bogus"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in rules_by_name():
            assert name in out
