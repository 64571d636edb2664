"""Tests for the staged flow pipeline, artifact cache and sweep orchestrator."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.bist import BISTStructure, compare_structures, synthesize
from repro.cli import main
from repro.encoding import random_search
from repro.flow import (
    ArtifactCache,
    FlowConfig,
    FlowResult,
    StageResult,
    Sweep,
    SweepResult,
    add_flow_arguments,
    config_from_args,
    fsm_digest,
    run_flow,
)
from repro.flow.config import _MISR_ASSIGN_KEYS
from repro.flow.pipeline import stage_keys
from repro.fsm import load_benchmark, write_kiss_file

#: A valid non-default value for each knob that only the MISR assignment of
#: PST/SIG reads.  DFF (MUSTANG) and PAT assign from ``width`` alone, so
#: none of these may change a DFF/PAT artifact or its cache key.
MISR_ONLY_CHANGES = {
    "seed": 7,
    "beam_width": 2,
    "partitions_per_column": 3,
    "assignment_engine": "reference",
    "multi_start": 2,
    "max_polynomials": 3,
    "input_weight": 0,
    "output_weight": 3,
}

CACHED_STAGES = ("assign", "excite", "minimize", "faultsim")


def _behaviour(result: FlowResult) -> dict:
    """A FlowResult's dict minus its config, wall-clock and cache-hit fields."""
    data = json.loads(json.dumps(result.to_dict()))
    data.pop("config")
    data.pop("total_seconds")
    for stage in data["stages"]:
        stage.pop("seconds")
        stage.pop("cached")
    return data


# --------------------------------------------------------------- FlowConfig


class TestFlowConfig:
    def test_round_trip_identity(self):
        config = FlowConfig(
            structure="SIG", width=5, seed=3, multi_start=2,
            fault_patterns=256, word_width=64, fault_collapse=True,
        )
        assert FlowConfig.from_dict(config.to_dict()) == config

    def test_default_round_trip(self):
        config = FlowConfig()
        assert FlowConfig.from_dict(config.to_dict()) == config
        json.dumps(config.to_dict())  # JSON-safe

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FlowConfig fields"):
            FlowConfig.from_dict({"structure": "PST", "turbo": True})

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(structure="JK")
        with pytest.raises(ValueError):
            FlowConfig(engine="quantum")
        with pytest.raises(ValueError):
            FlowConfig(multi_start=0)

    def test_synthesis_options_round_trip(self):
        config = FlowConfig(width=4, beam_width=6, multi_start=3, jobs=2, seed=7)
        options = config.to_synthesis_options()
        assert options.width == 4 and options.beam_width == 6
        again = FlowConfig.from_synthesis_options(options, structure="DFF")
        assert again.structure == "DFF"
        assert again.to_synthesis_options() == options

    def test_digest_changes_with_fields(self):
        base = FlowConfig()
        assert base.digest() != base.replace(seed=1).digest()
        assert base.digest() == FlowConfig().digest()

    def test_stage_digest_ignores_jobs_and_later_stages(self):
        base = FlowConfig()
        # jobs is result-identical parallelism: never invalidates artifacts.
        assert base.stage_digest("assign") == base.replace(jobs=8).stage_digest("assign")
        assert base.stage_digest("faultsim") == base.replace(jobs=8).stage_digest("faultsim")
        # fault knobs do not invalidate upstream synthesis artifacts.
        changed = base.replace(fault_patterns=512)
        assert base.stage_digest("assign") == changed.stage_digest("assign")
        assert base.stage_digest("minimize") == changed.stage_digest("minimize")
        assert base.stage_digest("faultsim") != changed.stage_digest("faultsim")
        # assignment knobs invalidate everything downstream.
        reseeded = base.replace(seed=9)
        assert base.stage_digest("assign") != reseeded.stage_digest("assign")
        assert base.stage_digest("minimize") != reseeded.stage_digest("minimize")
        # ... but the MISR-only knobs key the MISR structures alone: every
        # DFF/PAT stage (shard keys derive from the faultsim digest) ignores
        # them, and every PST/SIG stage changes with each of them.
        assert set(MISR_ONLY_CHANGES) == set(_MISR_ASSIGN_KEYS)
        for structure in ("DFF", "PAT", "PST", "SIG"):
            config = base.replace(structure=structure, fault_patterns=256, faultsim_shards=2)
            shared = structure in ("DFF", "PAT")
            for field, value in MISR_ONLY_CHANGES.items():
                perturbed = config.replace(**{field: value})
                for stage in CACHED_STAGES:
                    same = config.stage_digest(stage) == perturbed.stage_digest(stage)
                    assert same == shared, (structure, field, stage)
        # DFF/PAT stages still key on the structure, the width and every
        # knob of their own and later stages.
        dff = base.replace(structure="DFF", fault_patterns=256)
        for changes in ({"structure": "PAT"}, {"width": 5}):
            assert dff.stage_digest("assign") != dff.replace(**changes).stage_digest("assign")
        for field, stage in (("espresso_iterations", "minimize"), ("fault_seed", "faultsim")):
            changed = dff.replace(**{field: 1})
            assert dff.stage_digest(stage) != changed.stage_digest(stage), field

    @pytest.mark.parametrize("structure", ["DFF", "PAT"])
    @pytest.mark.parametrize("machine", ["dk512", "ex4", "mark1", "dk16"])
    def test_misr_only_knobs_do_not_change_dff_pat_results(self, machine, structure):
        """The digest exclusion is proven, not trusted: uncached runs with
        each MISR-only knob perturbed produce the identical result."""
        config = FlowConfig(structure=structure, fault_patterns=256)
        reference = _behaviour(run_flow(machine, config))
        assert reference["metrics"]["fault_detected"] > 0
        for field, value in MISR_ONLY_CHANGES.items():
            perturbed = config.replace(**{field: value})
            for stage in CACHED_STAGES:
                assert perturbed.stage_digest(stage) == config.stage_digest(stage)
            result = _behaviour(run_flow(machine, perturbed))
            assert result == reference, (machine, structure, field)

    def test_assign_digest_keys_on_the_assigner(self):
        """PST and SIG call the MISR assigner identically, so they share
        the assign key; every later stage still keys on the structure."""
        pst, sig = FlowConfig(structure="PST"), FlowConfig(structure="SIG")
        assert pst.stage_digest("assign") == sig.stage_digest("assign")
        for stage in ("excite", "minimize"):
            assert pst.stage_digest(stage) != sig.stage_digest(stage)
        assert pst.replace(fault_patterns=256).stage_digest("faultsim") != (
            sig.replace(fault_patterns=256).stage_digest("faultsim"))
        assigners = {FlowConfig(structure=s).stage_digest("assign")
                     for s in ("DFF", "PAT", "PST")}
        assert len(assigners) == 3

    @pytest.mark.parametrize("machine", ["dk512", "ex4", "mark1"])
    def test_pst_and_sig_assignments_are_identical(self, machine):
        """The shared assign key is proven, not trusted: uncached PST and
        SIG runs produce the same assign payload."""
        pst = run_flow(machine, FlowConfig(structure="PST"))
        sig = run_flow(machine, FlowConfig(structure="SIG"))
        assert pst.encoding == sig.encoding
        assert pst.metrics["register_polynomial"] == sig.metrics["register_polynomial"]
        assert pst.stage("assign").metrics == sig.stage("assign").metrics

    def test_stage_digest_unknown_stage(self):
        with pytest.raises(ValueError, match="no cache digest"):
            FlowConfig().stage_digest("teleport")

    def test_argparse_bridge_defaults_match_config(self):
        import argparse

        parser = argparse.ArgumentParser()
        add_flow_arguments(parser, structure=True)
        args = parser.parse_args([])
        assert config_from_args(args) == FlowConfig()

    def test_argparse_bridge_overrides(self):
        import argparse

        parser = argparse.ArgumentParser()
        add_flow_arguments(parser, structure=True)
        args = parser.parse_args(
            ["--structure", "DFF", "--multi-start", "3", "--word-width", "64"]
        )
        config = config_from_args(args, fault_patterns=128)
        assert config.structure == "DFF"
        assert config.multi_start == 3
        assert config.word_width == 64
        assert config.fault_patterns == 128


# ----------------------------------------------------------------- run_flow


class TestRunFlow:
    def test_parity_with_synthesize(self, small_controller):
        for structure in (BISTStructure.PST, BISTStructure.DFF, BISTStructure.PAT):
            legacy = synthesize(small_controller, structure)
            result = run_flow(small_controller, FlowConfig(structure=structure.value))
            assert result.product_terms == legacy.product_terms
            assert result.sop_literals == legacy.sop_literals
            assert result.multilevel_literals == legacy.multilevel_literals()
            assert result.encoding["codes"] == dict(legacy.encoding.codes)

    def test_stage_names_in_order(self, small_controller):
        result = run_flow(small_controller)
        assert [s.name for s in result.stages] == [
            "parse", "assign", "excite", "minimize", "report",
        ]
        with_faults = run_flow(small_controller, FlowConfig(fault_patterns=32, word_width=16))
        assert [s.name for s in with_faults.stages] == [
            "parse", "assign", "excite", "minimize", "faultsim", "report",
        ]

    def test_faultsim_parity_with_simulator(self, small_controller):
        from repro.circuit.faults import FaultSimulator, enumerate_faults
        from repro.circuit.netlist import netlist_from_controller

        controller = synthesize(small_controller, BISTStructure.PST)
        circuit = netlist_from_controller(controller)
        simulator = FaultSimulator(circuit, word_width=16)
        direct = simulator.coverage_for_random_patterns(
            100, seed=0, faults=enumerate_faults(circuit)
        )
        result = run_flow(
            small_controller,
            FlowConfig(structure="PST", fault_patterns=100, word_width=16),
        )
        assert result.fault_coverage == pytest.approx(direct.coverage)
        assert result.metrics["fault_total"] == direct.total_faults
        assert result.metrics["patterns_simulated"] == 100
        assert result.coverage_curve == [[c, v] for c, v in direct.coverage_curve()]

    def test_accepts_benchmark_name_and_path(self, small_controller, tmp_path):
        by_name = run_flow("dk512")
        assert by_name.fsm == "dk512"
        path = tmp_path / "machine.kiss2"
        write_kiss_file(small_controller, path)
        by_path = run_flow(path)
        assert by_path.fsm == "machine"

    def test_materialize_attaches_controller(self, small_controller):
        result = run_flow(small_controller, materialize=True)
        assert result.controller is not None
        assert result.controller.product_terms == result.product_terms

    def test_result_round_trip(self, small_controller):
        result = run_flow(small_controller, FlowConfig(fault_patterns=32, word_width=16))
        data = result.to_dict()
        json.dumps(data)  # JSON-safe
        assert FlowResult.from_dict(data).to_dict() == data

    def test_fsm_digest_sensitive_to_state_order(self, small_controller):
        from repro.fsm import FSM

        reordered = FSM(
            small_controller.name,
            small_controller.num_inputs,
            small_controller.num_outputs,
            small_controller.transitions,
            reset_state=small_controller.reset_state,
            states=list(reversed(small_controller.states)),
        )
        assert fsm_digest(small_controller) != fsm_digest(reordered)


# -------------------------------------------------------------------- cache


class TestArtifactCache:
    def test_warm_run_serves_every_stage(self, small_controller, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = FlowConfig(fault_patterns=64, word_width=16)
        cold = run_flow(small_controller, config, cache=cache)
        assert not cold.all_cached
        warm = run_flow(small_controller, config, cache=cache)
        assert warm.all_cached
        assert [s.cached for s in warm.cacheable_stages] == [True, True, True, True]
        assert dict(warm.metrics) == dict(cold.metrics)
        assert warm.coverage_curve == cold.coverage_curve
        assert warm.uncached_seconds == 0

    def test_warm_run_does_zero_stage_work(self, small_controller, tmp_path, monkeypatch):
        import repro.flow.pipeline as pipeline

        cache = ArtifactCache(tmp_path / "cache")
        config = FlowConfig(fault_patterns=64, word_width=16)
        run_flow(small_controller, config, cache=cache)

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("stage work on a warm cache")

        monkeypatch.setattr(pipeline, "assign_states", boom)
        monkeypatch.setattr(pipeline, "derive_excitation", boom)
        monkeypatch.setattr(pipeline, "minimize_excitation", boom)
        warm = run_flow(small_controller, config, cache=cache)
        assert warm.all_cached

    def test_fault_knob_change_keeps_synthesis_artifacts(self, small_controller, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_flow(small_controller, FlowConfig(fault_patterns=64, word_width=16), cache=cache)
        changed = run_flow(
            small_controller, FlowConfig(fault_patterns=32, word_width=16), cache=cache
        )
        assert changed.stage("assign").cached
        assert changed.stage("minimize").cached
        assert not changed.stage("faultsim").cached

    def test_seed_change_misses(self, small_controller, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_flow(small_controller, FlowConfig(), cache=cache)
        reseeded = run_flow(small_controller, FlowConfig(seed=5), cache=cache)
        assert not reseeded.stage("assign").cached

    def test_materialize_from_warm_cache(self, small_controller, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        legacy = synthesize(small_controller, BISTStructure.PST)
        run_flow(small_controller, cache=cache)
        warm = run_flow(small_controller, cache=cache, materialize=True)
        assert warm.all_cached
        controller = warm.controller
        assert controller.product_terms == legacy.product_terms
        assert dict(controller.encoding.codes) == dict(legacy.encoding.codes)
        # The reconstructed controller supports the netlist/Verilog path.
        from repro.circuit.verilog import controller_to_verilog

        assert "module" in controller_to_verilog(controller)

    def test_corrupt_artifact_is_a_miss(self, small_controller, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_flow(small_controller, cache=cache)
        for path in (tmp_path / "cache").glob("*/*.json"):
            path.write_text("{not json")
        again = run_flow(small_controller, cache=cache)
        assert not again.stage("assign").cached

    def test_non_dict_json_artifact_is_a_miss(self, small_controller, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_flow(small_controller, cache=cache)
        for path in (tmp_path / "cache").glob("*/*.json"):
            path.write_text("[]")
        again = run_flow(small_controller, cache=cache)
        assert not again.stage("assign").cached

    def test_non_utf8_artifact_is_a_miss(self, small_controller, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_flow(small_controller, cache=cache)
        for path in (tmp_path / "cache").glob("*/*.json"):
            path.write_bytes(b"\xff\xfe\x00garbage")
        again = run_flow(small_controller, cache=cache)
        assert not again.stage("assign").cached

    def test_caller_implicants_bypass_cache(self, small_controller, tmp_path):
        from repro.logic.symbolic import symbolic_minimize

        cache = ArtifactCache(tmp_path / "cache")
        run_flow(small_controller, cache=cache)
        implicants = symbolic_minimize(small_controller.completed())
        custom = run_flow(small_controller, cache=cache, implicants=implicants)
        # Neither served from nor written to the cache: the implicants are
        # not part of the stage digests, so sharing keys would poison them.
        assert not custom.stage("assign").cached
        warm = run_flow(small_controller, cache=cache)
        assert warm.all_cached

    def test_sig_and_pst_compute_assign_once(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = FlowConfig(fault_patterns=256)
        sig = run_flow("dk512", config.replace(structure="SIG"), cache=cache)
        pst = run_flow("dk512", config.replace(structure="PST"), cache=cache)
        assert not any(stage.cached for stage in sig.cacheable_stages)
        assert [s.name for s in pst.cacheable_stages if s.cached] == ["assign"]
        assert cache.writes == 2 * len(CACHED_STAGES) - 1
        for structure, cached in (("SIG", sig), ("PST", pst)):
            uncached = run_flow("dk512", config.replace(structure=structure))
            assert _behaviour(cached) == _behaviour(uncached), structure

    @pytest.mark.parametrize("shards", [1, 2])
    def test_stage_keys_name_every_artifact_the_flow_touches(self, tmp_path, shards):
        class Recording(ArtifactCache):
            def __init__(self, root):
                super().__init__(root)
                self.read, self.written = [], []

            def get(self, key):
                self.read.append(key)
                return super().get(key)

            def put(self, key, payload):
                self.written.append(key)
                super().put(key, payload)

        machine = load_benchmark("dk512")
        for config in (FlowConfig(faultsim_shards=shards),
                       FlowConfig(fault_patterns=256, faultsim_shards=shards)):
            cache = Recording(tmp_path / f"{config.digest()}")
            run_flow(machine, config, cache=cache)
            keys = set(stage_keys(machine, config).values())
            assert set(cache.read) == set(cache.written) == keys
            assert len(keys) == len(cache.read)

    def test_clear_and_len(self, small_controller, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_flow(small_controller, cache=cache)
        assert len(cache) == 3  # assign, excite, minimize
        assert cache.clear() == 3
        assert len(cache) == 0


# -------------------------------------------------------------------- sweep


class TestSweep:
    NAMES = ["dk512", "ex4"]

    def test_matches_legacy_benchmark_path(self):
        sweep = Sweep(self.NAMES, structures=("PST", "DFF", "PAT"),
                      random_trials=2, random_seed=1991).run()
        for name in self.NAMES:
            machine = load_benchmark(name)
            search = random_search(
                machine,
                lambda enc, m=machine: synthesize(
                    m, BISTStructure.PST, encoding=enc
                ).product_terms,
                trials=2,
                seed=1991,
            )
            baseline = sweep.baselines[name]
            assert baseline.average == search.average_cost
            assert baseline.best == int(search.best_cost)
            for structure in (BISTStructure.PST, BISTStructure.DFF, BISTStructure.PAT):
                legacy = synthesize(machine, structure)
                cell = sweep.result_for(name, structure.value)
                assert cell.product_terms == legacy.product_terms, (name, structure)

    def test_jobs_do_not_change_results(self, tmp_path):
        serial = Sweep(self.NAMES, structures=("PST", "DFF")).run()
        pooled = Sweep(self.NAMES, structures=("PST", "DFF"), jobs=2).run()
        assert [dict(r.metrics) for r in serial.results] == [
            dict(r.metrics) for r in pooled.results
        ]
        assert [(r.fsm, r.structure) for r in serial.results] == [
            (r.fsm, r.structure) for r in pooled.results
        ]

    def test_second_run_served_from_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = Sweep(self.NAMES, random_trials=2, cache=cache).run()
        assert not cold.all_cached
        warm = Sweep(self.NAMES, random_trials=2, cache=cache).run()
        assert warm.all_cached
        assert warm.uncached_seconds == 0
        assert [dict(r.metrics) for r in warm.results] == [
            dict(r.metrics) for r in cold.results
        ]
        assert warm.baselines["dk512"].cached

    def test_dff_pat_stages_are_shared_across_seeds(self, tmp_path):
        """Each DFF/PAT stage is written once per machine, whatever the
        number of seeds; PST stages once per seed.  The shared artifacts
        give the same sweep as an uncached run."""
        config = FlowConfig(fault_patterns=256)
        grid = dict(structures=("DFF", "PAT", "PST"), seeds=(1, 2, 3), config=config)
        cached = Sweep(self.NAMES, cache=ArtifactCache(tmp_path / "cache"), **grid).run()
        machines, seeds = len(self.NAMES), 3
        stages = len(CACHED_STAGES)
        assert cached.cache_stats["writes"] == machines * (2 + seeds) * stages
        assert cached.cache_stats["hits"] == machines * 2 * (seeds - 1) * stages
        for result in cached.results:
            first_seed = result.config["seed"] == 1
            if result.structure != "PST" and not first_seed:
                assert result.all_cached, (result.fsm, result.structure)
            else:
                assert not any(s.cached for s in result.cacheable_stages)
        uncached = Sweep(self.NAMES, **grid).run()
        assert [_behaviour(r) for r in cached.results] == [
            _behaviour(r) for r in uncached.results
        ]
        assert [r.config for r in cached.results] == [r.config for r in uncached.results]

    def test_dff_pat_shard_artifacts_are_shared_across_seeds(self, tmp_path):
        config = FlowConfig(fault_patterns=256, faultsim_shards=2)
        grid = dict(structures=("DFF", "PAT", "PST"), seeds=(1, 2, 3), config=config)
        cached = Sweep(self.NAMES, cache=ArtifactCache(tmp_path / "cache"), **grid).run()
        # Per (machine, structure, seed) computed: assign, excite, minimize,
        # two shards and the merged faultsim stage.
        machines, seeds = len(self.NAMES), 3
        assert cached.cache_stats["writes"] == machines * (2 + seeds) * 6
        shards = [c for c in cached.executor["cells"] if c["kind"] == "faultsim-shard"]
        assert len(shards) == machines * 3 * seeds * 2
        for shard in shards:
            shared = shard["structure"] != "PST" and shard["seed"] != 1
            assert shard["cached"] == shared, shard
        uncached = Sweep(self.NAMES, **grid).run()
        assert [_behaviour(r) for r in cached.results] == [
            _behaviour(r) for r in uncached.results
        ]

    def test_random_baseline_is_shared_across_seeds(self, tmp_path):
        """The baseline reads the minimiser knobs, ``trials`` and
        ``random_seed``; another assignment seed serves it from the cache."""
        cache = ArtifactCache(tmp_path / "cache")
        grid = dict(structures=("DFF",), random_trials=2, cache=cache)
        first = Sweep(["dk512"], seeds=(1,), **grid).run().baselines["dk512"]
        second = Sweep(["dk512"], seeds=(2,), **grid).run().baselines["dk512"]
        assert not first.cached and second.cached
        assert (second.average, second.best) == (first.average, first.best)
        for changes in ({"random_trials": 3}, {"random_seed": 5},
                        {"config": FlowConfig(espresso_iterations=1)}):
            other = Sweep(["dk512"], **{**grid, "seeds": (2,), **changes}).run()
            assert not other.baselines["dk512"].cached, changes

    def test_round_trip(self):
        sweep = Sweep(["dk512"], structures=("PST",), random_trials=1).run()
        data = sweep.to_dict()
        json.dumps(data)
        assert SweepResult.from_dict(data).to_dict() == data

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            Sweep([])
        with pytest.raises(ValueError):
            Sweep(["dk512"], structures=())


# --------------------------------------------------------- compat wrappers


class TestCompatWrappers:
    def test_compare_structures_matches_flow(self, small_controller):
        comparison = compare_structures(
            small_controller, structures=(BISTStructure.DFF, BISTStructure.PST)
        )
        for structure in (BISTStructure.DFF, BISTStructure.PST):
            legacy = synthesize(small_controller, structure)
            metric = comparison.metric_for(structure)
            assert metric.product_terms == legacy.product_terms
            assert metric.sop_literals == legacy.sop_literals
            controller = comparison.controllers[structure]
            assert controller.product_terms == legacy.product_terms

    def test_top_level_exports(self):
        assert repro.run_flow is run_flow
        assert repro.FlowConfig is FlowConfig
        assert repro.Sweep is Sweep
        for name in ("run_flow", "Sweep", "FlowConfig", "FlowResult",
                     "ArtifactCache", "synthesize", "FaultSimulator"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


# ------------------------------------------------------------------ CLI JSON


class TestCliJson:
    #: Golden headline metrics of the two seed benchmarks (synthetic
    #: stand-ins are deterministic, so these values are stable).
    GOLDEN = {
        "dk512": {"state_bits": 4, "product_terms": 11, "sop_literals": 85,
                  "multilevel_literals": 84, "register_polynomial": 19},
        "ex4": {"state_bits": 4, "product_terms": 15, "sop_literals": 173,
                "multilevel_literals": 170, "register_polynomial": 19},
    }

    @pytest.fixture
    def kiss_for(self, tmp_path):
        def _write(name: str) -> Path:
            path = tmp_path / f"{name}.kiss2"
            write_kiss_file(load_benchmark(name), path)
            return path
        return _write

    def test_synthesize_json_golden(self, capsys):
        # Benchmark names resolve through the registry, so the goldens pin
        # the full chain: registry -> flow -> serialized result.
        for name, golden in self.GOLDEN.items():
            result = run_flow(name, FlowConfig(structure="PST"))
            data = result.to_dict()
            assert data["schema"] == "repro.flow-result/1"
            for key, value in golden.items():
                assert data["metrics"][key] == value, (name, key)

    def test_cli_synthesize_json_schema(self, kiss_for, capsys):
        # A .kiss2 file declares states in transition-appearance order, so
        # the expectation comes from the same parsed machine (state order is
        # part of the input — see test_fsm_digest_sensitive_to_state_order).
        from repro.fsm import parse_kiss_file

        path = kiss_for("dk512")
        expected = run_flow(parse_kiss_file(path), FlowConfig(structure="PST"))
        exit_code = main(["synthesize", str(path), "--json"])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.flow-result/1"
        assert data["structure"] == "PST"
        assert data["metrics"] == dict(expected.metrics)
        assert [s["name"] for s in data["stages"]] == [
            "parse", "assign", "excite", "minimize", "report",
        ]

    def test_cli_faultsim_json(self, kiss_for, capsys):
        exit_code = main([
            "faultsim", str(kiss_for("ex4")), "--patterns", "64",
            "--word-width", "16", "--json",
        ])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.flow-result/1"
        assert data["metrics"]["patterns_simulated"] == 64
        assert 0.0 <= data["metrics"]["fault_coverage"] <= 1.0
        assert data["coverage_curve"]

    def test_cli_compare_json(self, kiss_for, capsys):
        exit_code = main(["compare", str(kiss_for("dk512")), "--json"])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.flow-comparison/1"
        structures = [r["structure"] for r in data["results"]]
        assert structures == ["DFF", "PAT", "SIG", "PST"]
        assert all(r["schema"] == "repro.flow-result/1" for r in data["results"])

    def test_cli_benchmarks_json(self, capsys):
        exit_code = main(["benchmarks", "--names", "dk512", "--trials", "1", "--json"])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.flow-sweep/3"
        assert data["machines"] == ["dk512"]
        pst = [r for r in data["results"] if r["structure"] == "PST"][0]
        assert pst["metrics"]["product_terms"] == self.GOLDEN["dk512"]["product_terms"]
        assert "dk512" in data["baselines"]

    def test_cli_benchmarks_seed_routed_into_cells(self, capsys):
        exit_code = main(["benchmarks", "--names", "dk512", "--trials", "1",
                          "--seed", "5", "--json"])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seeds"] == [5]
        assert all(r["config"]["seed"] == 5 for r in data["results"])

    def test_cli_validate_json(self, kiss_for, capsys):
        exit_code = main(["validate", str(kiss_for("dk512")), "--json"])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_cli_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == repro.__version__
        assert main(["version", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"version": repro.__version__}

    def test_cli_version_flag_exits(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_cli_cache_dir_round_trip(self, kiss_for, capsys):
        path = kiss_for("dk512")
        import tempfile

        with tempfile.TemporaryDirectory() as cache_dir:
            main(["synthesize", str(path), "--cache-dir", cache_dir, "--json"])
            cold = json.loads(capsys.readouterr().out)
            main(["synthesize", str(path), "--cache-dir", cache_dir, "--json"])
            warm = json.loads(capsys.readouterr().out)
        assert all(not s["cached"] for s in cold["stages"])
        work_stages = [s for s in warm["stages"] if s["name"] not in ("parse", "report")]
        assert all(s["cached"] for s in work_stages)
        assert warm["metrics"] == cold["metrics"]
