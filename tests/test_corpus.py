"""Tests of the corpus subsystem and the differential fuzz harness.

Covers the ``corpus:`` spec grammar, seed-stability of the generators (the
digest of a generated machine is a pure function of ``(generator, params,
seed)`` — including across interpreter hash randomisation), the digest's
role in the artifact-cache key path, KISS2 directory ingest, and the fuzz
harness's ability to catch a deliberately broken engine and emit a
minimized, replayable repro case.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import (
    GENERATORS,
    CorpusEntry,
    FuzzCase,
    FuzzReport,
    MUTATIONS,
    canonical_spec,
    corpus_entry,
    corpus_fsm,
    generate_corpus_fsm,
    ingest_kiss_dir,
    is_corpus_spec,
    parse_corpus_spec,
    replay_case,
    resolve_parameters,
    run_fuzz,
)
from repro.flow import ArtifactCache, FlowConfig, run_flow
from repro.flow.pipeline import fsm_digest, resolve_fsm
from repro.fsm.kiss import write_kiss
from repro.fsm.machine import FSMError

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------- spec grammar


class TestCorpusSpecs:
    def test_canonical_spec_fills_defaults_and_sorts_keys(self) -> None:
        entry = corpus_entry("corpus:ring:states=24,seed=7")
        assert entry.spec == (
            "corpus:ring:jump_every=32,output_dc=0.1,outputs=3,seed=7,states=24"
        )
        assert entry.name == entry.spec

    def test_parameter_spelling_and_order_do_not_change_digest(self) -> None:
        terse = corpus_entry("corpus:ring:seed=7,states=24")
        canonical = corpus_entry(terse.spec)
        assert terse.digest == canonical.digest
        assert terse.spec == canonical.spec

    def test_parse_corpus_spec_splits_generator_and_params(self) -> None:
        generator, raw = parse_corpus_spec("corpus:chain:states=40,seed=3")
        assert generator == "chain"
        assert raw == {"states": "40", "seed": "3"}

    def test_file_spec_keeps_path_verbatim(self) -> None:
        generator, raw = parse_corpus_spec("corpus:file:some/dir:odd/name.kiss2")
        assert generator == "file"
        assert raw == {"path": "some/dir:odd/name.kiss2"}

    def test_is_corpus_spec(self) -> None:
        assert is_corpus_spec("corpus:ring")
        assert not is_corpus_spec("dk16")
        assert not is_corpus_spec("machines/dk16.kiss2")

    @pytest.mark.parametrize(
        "spec",
        [
            "corpus:",
            "corpus:nosuchgenerator:states=4",
            "corpus:ring:states",
            "corpus:ring:states=4,states=8",
            "corpus:ring:bogus=1",
            "corpus:file:",
        ],
    )
    def test_bad_specs_raise_fsm_error(self, spec: str) -> None:
        with pytest.raises(FSMError):
            corpus_fsm(spec)

    def test_unknown_generator_error_lists_known_names(self) -> None:
        with pytest.raises(FSMError, match="ring"):
            resolve_parameters("nosuch", {})

    def test_string_parameters_are_coerced_by_default_type(self) -> None:
        _, params = resolve_parameters(
            "controller", {"states": "16", "density": "2.5"}
        )
        assert params["states"] == 16 and isinstance(params["states"], int)
        assert params["density"] == 2.5 and isinstance(params["density"], float)

    def test_tree_branch_must_be_power_of_two(self) -> None:
        with pytest.raises(FSMError):
            corpus_fsm("corpus:tree:states=15,branch=3")


# ------------------------------------------------- seed-stability regression

#: Pinned digests: a pure function of (generator, params, seed).  A diff
#: here means generated machines changed, which silently invalidates every
#: cached artifact and every published experiment built on the corpus.
PINNED_DIGESTS = {
    "corpus:controller:states=16,seed=0":
        "7d9aced1670db6d5d2f2c9722e6c249d308389618e6a2e4ceb81b58010452731",
    "corpus:chain:states=40,seed=3":
        "8754122baa409b9e8bcc76b8f8dc44136c9bebef3cbb615aa07a8faf7b0fede2",
    "corpus:ring:states=24,seed=7":
        "8bc36efebf9ffb7fe53856108389e477263ce0bfb4bbea80502394116a0eb60d",
    "corpus:tree:states=15,seed=2":
        "de1b02b0375c41e88c19489da4df12dad47857c9b3ba0c9c79fc0eaed617743a",
}


class TestSeedStability:
    @pytest.mark.parametrize("spec,expected", sorted(PINNED_DIGESTS.items()))
    def test_pinned_digest(self, spec: str, expected: str) -> None:
        assert corpus_entry(spec).digest == expected

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_same_spec_resolves_to_identical_digest(self, family: str) -> None:
        spec = f"corpus:{family}:states=15,seed=11"
        first, second = corpus_entry(spec), corpus_entry(spec)
        assert first.digest == second.digest
        assert first == second

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_seed_changes_digest(self, family: str) -> None:
        a = corpus_entry(f"corpus:{family}:states=15,seed=1")
        b = corpus_entry(f"corpus:{family}:states=15,seed=2")
        assert a.digest != b.digest

    def test_digest_stable_across_hash_randomisation(self) -> None:
        """The digest must not depend on the interpreter's hash seed."""
        spec = "corpus:controller:states=12,seed=5"
        script = (
            "from repro.corpus import corpus_entry; "
            f"print(corpus_entry({spec!r}).digest)"
        )
        digests = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(SRC_DIR)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1] == corpus_entry(spec).digest


class TestDigestInCacheKeyPath:
    def test_corpus_digest_keys_the_artifact_cache(self, tmp_path: Path) -> None:
        spec = "corpus:ring:states=12,seed=0,jump_every=4"
        cfg = FlowConfig(structure="PST", fault_patterns=16)
        cache = ArtifactCache(tmp_path)

        cold = run_flow(spec, cfg, cache=cache)
        assert cold.to_dict()["fsm_digest"] == corpus_entry(spec).digest

        warm = run_flow(spec, cfg, cache=cache)
        work = ("assign", "excite", "minimize", "faultsim")
        assert all(s.cached for s in warm.stages if s.name in work)
        assert warm.metrics == cold.metrics

        # A different generator seed is a different digest: nothing aliases.
        other = run_flow("corpus:ring:states=12,seed=1,jump_every=4", cfg, cache=cache)
        assert not any(s.cached for s in other.stages)
        assert other.to_dict()["fsm_digest"] != cold.to_dict()["fsm_digest"]


# ------------------------------------------------------------------- ingest


class TestIngest:
    def _write_corpus(self, directory: Path) -> None:
        for spec in ("corpus:ring:states=6,seed=1", "corpus:tree:states=7,seed=2"):
            fsm = corpus_fsm(spec)
            stem = spec.split(":")[1] + "_m"
            (directory / f"{stem}.kiss2").write_text(write_kiss(fsm))

    def test_ingest_yields_digest_addressed_entries(self, tmp_path: Path) -> None:
        self._write_corpus(tmp_path)
        entries = ingest_kiss_dir(tmp_path)
        assert [e.name for e in entries] == sorted(e.name for e in entries)
        assert len(entries) == 2
        for entry in entries:
            assert isinstance(entry, CorpusEntry)
            assert entry.spec.startswith("corpus:file:")
            resolved = resolve_fsm(entry.spec)
            assert fsm_digest(resolved) == entry.digest

    def test_ingested_spec_runs_through_the_flow(self, tmp_path: Path) -> None:
        self._write_corpus(tmp_path)
        entry = ingest_kiss_dir(tmp_path)[0]
        result = run_flow(entry.spec, FlowConfig(structure="PST"))
        assert result.to_dict()["fsm_digest"] == entry.digest

    def test_missing_and_empty_directories_raise(self, tmp_path: Path) -> None:
        with pytest.raises(FSMError):
            ingest_kiss_dir(tmp_path / "nope")
        with pytest.raises(FSMError):
            ingest_kiss_dir(tmp_path)


# ------------------------------------------------------------- fuzz harness


class TestFuzzHarness:
    def test_clean_run_passes_and_serializes(self) -> None:
        report = run_fuzz(cases=2, seed=0, minimize=False)
        assert report.ok
        assert report.passed == 2 and report.failed == 0
        data = report.to_dict()
        assert data["schema"] == "repro.fuzz/1"
        assert FuzzReport.from_dict(json.loads(json.dumps(data))).to_dict() == data

    def test_case_derivation_is_deterministic(self) -> None:
        from repro.corpus import make_cases

        assert make_cases(8, seed=3) == make_cases(8, seed=3)
        assert make_cases(8, seed=3) != make_cases(8, seed=4)

    @pytest.mark.parametrize("mutation", ["kiss-swap-lines", "seed-drift"])
    def test_mutation_is_caught_minimized_and_replayable(self, mutation: str) -> None:
        assert mutation in MUTATIONS
        report = run_fuzz(cases=1, seed=0, mutate=mutation)
        assert not report.ok
        assert report.failures, "a mutated engine must produce failure entries"

        entry = report.failures[0]
        minimized = entry["minimized"]
        assert minimized["schema"] == "repro.fuzz/1"
        assert minimized["mutation"] == mutation
        original_states = int(
            dict(
                kv.split("=") for kv in entry["case"]["spec"].split(":", 2)[2].split(",")
            )["states"]
        )
        minimized_states = int(
            dict(
                kv.split("=") for kv in minimized["spec"].split(":", 2)[2].split(",")
            )["states"]
        )
        assert minimized_states <= original_states

        # Replaying the failure entry re-applies the stored mutation and fails…
        replayed = replay_case(entry)
        assert replayed["status"] == "fail"
        # …while the same minimized case without the mutation passes.
        clean = replay_case({**minimized, "mutation": None})
        assert clean["status"] == "pass"

    def test_engine_parity_and_cover_contract_share_one_flow(self) -> None:
        from unittest import mock

        from repro.corpus import fuzz, make_cases

        case = make_cases(1, seed=0)[0]
        assert {"engine-parity", "cover-contract"} <= set(case.invariants)
        with mock.patch.object(fuzz, "run_flow", wraps=fuzz.run_flow) as flow:
            outcome = fuzz.check_case(case)
        assert outcome["status"] == "pass"
        # engine-parity and cover-contract read one materialized flow;
        # cache-parity runs its own cold and warm flows.
        materialized = [c for c in flow.call_args_list if c.kwargs.get("materialize")]
        assert len(materialized) == 1
        assert fuzz._case_flow == []

    def test_bitset_drop_is_caught_and_the_kernel_restored(self) -> None:
        from repro.corpus import fuzz, make_cases
        from repro.logic import cover, espresso

        case = make_cases(1, seed=0)[0]
        case = FuzzCase(case.case_id, case.spec, case.config, ("cover-contract",))
        outcome = fuzz.check_case(case, mutation="minimize-bitset-drop")
        assert [f["invariant"] for f in outcome["failures"]] == ["cover-contract"]
        assert espresso.raised_mask is cover.raised_mask
        assert fuzz.check_case(case)["status"] == "pass"

    def test_unknown_mutation_rejected(self) -> None:
        with pytest.raises(ValueError):
            run_fuzz(cases=1, seed=0, mutate="not-a-mutation")

    def test_case_schema_round_trip_and_validation(self) -> None:
        from repro.corpus import make_cases

        case = make_cases(1, seed=0)[0]
        assert FuzzCase.from_dict(case.to_dict()) == case
        bad = dict(case.to_dict(), schema="repro.fuzz/999")
        with pytest.raises(ValueError):
            FuzzCase.from_dict(bad)
        bad_inv = dict(case.to_dict(), invariants=["no-such-invariant"])
        with pytest.raises(ValueError):
            FuzzCase.from_dict(bad_inv)
