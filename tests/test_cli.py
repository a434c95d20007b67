"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_sweep_subcommand_is_gone(self, capsys):
        # Chunk stores run only through `fleet sweep` / `fleet sim`.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "-D", "6", "--n-min", "62", "--n-max", "66"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_sim_help_lists_no_chunk_store_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["sim", "--help"])
        out = capsys.readouterr().out
        for flag in ("--out-dir", "--shard", "--resume", "--merge", "--workers"):
            assert flag not in out


class TestLayoutCommand:
    def test_layout_basic(self, capsys):
        assert main(["layout", "-D", "8"]) == 0
        out = capsys.readouterr().out
        assert "OTIS(16,32)" in out
        assert "48 lenses" in out
        assert "verified: True" in out

    def test_layout_with_assignments(self, capsys):
        assert main(["layout", "-D", "4", "--assignments"]) == 0
        out = capsys.readouterr().out
        assert "transmitters" in out
        assert out.count("\n") > 16  # one row per processor


class TestCheckCommand:
    def test_check_positive(self, capsys):
        assert main(["check", "--p-prime", "4", "--q-prime", "5"]) == 0
        assert "IS isomorphic" in capsys.readouterr().out

    def test_check_negative_exit_code(self, capsys):
        assert main(["check", "--p-prime", "3", "--q-prime", "6"]) == 1
        assert "is NOT isomorphic" in capsys.readouterr().out


class TestSplitsCommand:
    def test_splits(self, capsys):
        assert main(["splits", "-D", "8"]) == 0
        out = capsys.readouterr().out
        assert "lenses" in out
        assert out.count("\n") >= 9  # header + separator + 8 splits


class TestTable1Command:
    def test_table1_printed_rows(self, capsys):
        assert main(["table1", "8"]) == 0
        out = capsys.readouterr().out
        assert "B(2,8)" in out
        assert "K(2,8)" in out
        assert "all printed rows reproduced: True" in out

    def test_table1_rejects_unknown_diameter(self):
        with pytest.raises(SystemExit):
            main(["table1", "6"])


class TestFigureCommand:
    def test_figure_1_dot(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "B(2,3)"')

    def test_figure_2_text(self, capsys):
        assert main(["figure", "2", "--format", "text"]) == 0
        assert "->" in capsys.readouterr().out

    def test_figure_5_dot(self, capsys):
        assert main(["figure", "5"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_figure_6_and_7_wirings(self, capsys):
        assert main(["figure", "6"]) == 0
        out6 = capsys.readouterr().out
        assert out6.count("->") == 18
        assert main(["figure", "7", "--format", "text"]) == 0
        out7 = capsys.readouterr().out
        assert "32 beams" in out7

    def test_figure_8(self, capsys):
        assert main(["figure", "8", "--format", "text"]) == 0
        assert "0000" in capsys.readouterr().out


def sim_curves(tmp_path, argv):
    """The curve rows a ``sim`` run on ``H(4,8,2)`` writes to ``--json``."""
    import json

    target = tmp_path / "BENCH_sim.json"
    assert main(argv + ["--json", str(target)]) == 0
    return json.loads(target.read_text())["sweep_H(4,8,2)_batched"]["curves"]


def reference_curves(workloads, rates, seeds, num_messages):
    """The same sweep's curve rows from the event-loop reference engine."""
    from repro.otis.h_digraph import h_digraph
    from repro.simulation.network import LinkModel, NetworkSimulator
    from repro.simulation.workloads import (
        assemble_throughput_sweep,
        sweep_combos,
        sweep_traffics,
    )

    graph = h_digraph(4, 8, 2)
    combos = sweep_combos(workloads, rates, seeds)
    traffics = sweep_traffics(graph.num_vertices, combos, num_messages)
    reference = NetworkSimulator(graph)
    stats = [reference.run(traffic)[0] for traffic in traffics]
    sweep = assemble_throughput_sweep(
        graph, combos, traffics, stats, link=LinkModel(), wall_time_s=0.0
    )
    return sweep.to_json()["curves"]


class TestSimCommand:
    def test_sim_basic_sweep(self, capsys):
        assert main(["sim", "-p", "4", "-q", "8", "--messages", "40", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "H(4,8,2)" in out
        assert "throughput" in out
        assert "kernels=" in out
        with pytest.raises(SystemExit) as excinfo:
            main(["sim", "-p", "4", "-q", "8", "--engine", "both"])
        assert excinfo.value.code == 2

    def test_sim_both_engines_parity(self, tmp_path):
        argv = [
            "sim",
            "-p", "4", "-q", "8",
            "--messages", "30",
            "--seeds", "2",
            "--workloads", "uniform", "hotspot",
            "--rates", "2.0",
        ]
        assert sim_curves(tmp_path, argv) == reference_curves(
            ("uniform", "hotspot"), (2.0,), range(2), 30
        )

    def test_sim_writes_json(self, capsys, tmp_path):
        target = tmp_path / "BENCH_sim.json"
        assert (
            main(
                [
                    "sim",
                    "-p", "4", "-q", "8",
                    "--messages", "20",
                    "--seeds", "1",
                    "--json", str(target),
                ]
            )
            == 0
        )
        import json

        data = json.loads(target.read_text())
        entry = data["sweep_H(4,8,2)_batched"]
        assert entry["graph"] == "H(4,8,2)"
        assert entry["curves"][0]["delivered"] == 20

class TestScenariosCommand:
    def test_scenarios_basic(self, capsys):
        assert (
            main(
                [
                    "scenarios",
                    "-p", "2", "-q", "8", "-d", "4",
                    "--messages", "40",
                    "--seeds", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "H(2,8,4)" in out
        assert "scenario [" in out
        assert "pareto" in out

    def test_scenarios_faults_reroute_parity(self, capsys):
        from repro.cli import _build_scenario
        from repro.otis.h_digraph import h_digraph
        from repro.simulation.network import NetworkSimulator

        argv = [
            "scenarios",
            "-p", "2", "-q", "8", "-d", "4",
            "--messages", "40",
            "--seeds", "2",
            "--rates", "0.5", "2.0",
            "--fail-links", "5",
            "--fail-at", "2.0",
            "--reroute", "arc-disjoint",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "reroute=arc-disjoint" in out
        # Every printed row's delivered count matches the reference engine.
        graph = h_digraph(2, 8, 4)
        scenario = _build_scenario(build_parser().parse_args(argv), graph)
        reference = NetworkSimulator(graph, scenario=scenario)
        for rate in (0.5, 2.0):
            traffics = [
                scenario.with_rate(rate).traffic(graph.num_vertices, rng=seed)
                for seed in range(2)
            ]
            delivered = sum(reference.run(t)[0].delivered for t in traffics)
            assert f"{delivered}/{sum(len(t) for t in traffics)}" in out

    def test_scenarios_buffered_bursty_json(self, capsys, tmp_path):
        target = tmp_path / "BENCH_scenarios.json"
        assert (
            main(
                [
                    "scenarios",
                    "-p", "2", "-q", "8", "-d", "4",
                    "--arrival", "bursty",
                    "--messages", "30",
                    "--seeds", "1",
                    "--capacity", "1",
                    "--on-full", "retry",
                    "--json", str(target),
                ]
            )
            == 0
        )
        import json

        data = json.loads(target.read_text())
        entry = data["scenarios_H(2,8,4)_bursty"]
        assert entry["scenario"]["arrivals"]["kind"] == "bursty"
        assert entry["scenario"]["link"]["capacity"] == 1
        assert entry["scenario_digest"]
        row = entry["curves"][0]
        assert {"throughput", "mean_latency", "pareto", "retransmits"} <= set(row)


class TestFleetStatusCommand:
    def test_status_of_completed_store(self, capsys, tmp_path):
        import json

        from repro.fleet import SweepFleetJob, run_fleet
        from repro.otis.sweep import ChunkManifest, ChunkStore

        manifest = ChunkManifest.build(2, 6, range(60, 64), chunk_size=2)
        store = ChunkStore(tmp_path / "sweep")
        run_fleet(SweepFleetJob(manifest, store), ttl=10, heartbeat=2)
        assert (
            main(["fleet", "status", "--out-dir", str(store.directory)]) == 0
        )
        out = capsys.readouterr().out
        assert "complete" in out
        assert (
            main(
                ["fleet", "status", "--out-dir", str(store.directory), "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] is True
        assert payload["chunks"] == len(manifest.chunks)
        assert payload["running"] == []

    def test_status_of_untouched_dir_fails(self, capsys, tmp_path):
        assert main(["fleet", "status", "--out-dir", str(tmp_path / "no")]) == 1
        assert "no fleet has written" in capsys.readouterr().err


def fleet_sweep_args(tmp_path, *extra):
    return [
        "fleet", "sweep",
        "-D", "6",
        "--n-min", "62",
        "--n-max", "66",
        "--out-dir", str(tmp_path / "chunks"),
        "--chunk-size", "8",
        *extra,
    ]


class TestFleetSweepCommand:
    def _args(self, tmp_path, *extra):
        return fleet_sweep_args(tmp_path, *extra)

    def test_sharded_run_then_merge(self, capsys, tmp_path):
        # One worker stops after a chunk, a second one finishes the store.
        assert main(self._args(tmp_path, "--max-chunks", "1")) == 0
        assert main(self._args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path, "--merge")) == 0
        out = capsys.readouterr().out
        assert "B(2,6)" in out  # n=64 row with its three splits
        assert "8     16" in out

    def test_merge_refuses_partial_store(self, capsys, tmp_path):
        assert main(self._args(tmp_path, "--max-chunks", "1")) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path, "--merge")) == 1
        assert "chunks incomplete" in capsys.readouterr().err

    def test_resume_skips_completed_chunks(self, capsys, tmp_path):
        assert main(self._args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "ran 0 chunks" in out

    def test_cache_dir_is_created_and_filled(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(self._args(tmp_path, "--cache-dir", str(cache_dir))) == 0
        assert list(cache_dir.glob("verdicts-d2-D6-*.jsonl"))

    def test_rejects_bad_range(self, capsys, tmp_path):
        assert (
            main(
                [
                    "fleet", "sweep",
                    "-D", "6",
                    "--n-min", "10",
                    "--n-max", "5",
                    "--out-dir", str(tmp_path / "chunks"),
                ]
            )
            == 2
        )


class TestSimCommandJson:
    def test_sim_json_key_matches_recorded_engine(self, capsys, tmp_path):
        # The key keeps its `_batched` suffix so recorded trajectories keep
        # their names; the payload carries no engine field.
        target = tmp_path / "BENCH_sim.json"
        assert (
            main(
                [
                    "sim",
                    "-p", "4", "-q", "8",
                    "--messages", "15",
                    "--seeds", "1",
                    "--json", str(target),
                ]
            )
            == 0
        )
        import json

        data = json.loads(target.read_text())
        (key,) = data.keys()
        assert key == "sweep_H(4,8,2)_batched"
        assert "engine" not in data[key]


class TestSimRouterFlag:
    @pytest.mark.parametrize("router", ["auto", "dense", "closed-form"])
    def test_router_choices_agree(self, capsys, tmp_path, router):
        argv = ["sim", "-p", "4", "-q", "8", "--messages", "30", "--seeds", "1"]
        assert sim_curves(tmp_path, argv + ["--router", router]) == reference_curves(
            ("uniform",), (None,), range(1), 30
        )

    def test_rejects_unknown_router(self):
        for router in ("magic", "lru"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sim", "-p", "4", "-q", "8", "--router", router])


class TestFleetSimCommand:
    def _args(self, tmp_path, *extra):
        return [
            "fleet", "sim",
            "-p", "4", "-q", "8",
            "--messages", "25",
            "--seeds", "4",
            "--out-dir", str(tmp_path / "replicas"),
            "--chunk-size", "2",
            *extra,
        ]

    def test_shard_run_then_merge(self, capsys, tmp_path):
        # One worker stops after a chunk, a second one finishes the store.
        assert main(self._args(tmp_path, "--max-chunks", "1")) == 0
        assert main(self._args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path, "--merge")) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "100/100" in out  # 4 seeds x 25 messages, all delivered

    def test_merge_refuses_incomplete_store(self, capsys, tmp_path):
        assert main(self._args(tmp_path, "--max-chunks", "1")) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path, "--merge")) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_resume_skips_completed_chunks(self, capsys, tmp_path):
        assert main(self._args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path)) == 0
        assert "ran 0 chunks" in capsys.readouterr().out

    def test_sharded_merge_matches_in_process_curves(self, capsys, tmp_path):
        assert main(self._args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path, "--merge")) == 0
        sharded_out = capsys.readouterr().out
        assert (
            main(["sim", "-p", "4", "-q", "8", "--messages", "25", "--seeds", "4"])
            == 0
        )
        in_process_out = capsys.readouterr().out
        # identical curve rows (skip the differing header/progress lines)
        sharded_rows = [l for l in sharded_out.splitlines() if "uniform" in l]
        in_process_rows = [l for l in in_process_out.splitlines() if "uniform" in l]
        assert sharded_rows == in_process_rows

    def test_sharded_writes_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "BENCH_sim.json"
        assert main(self._args(tmp_path)) == 0
        assert main(self._args(tmp_path, "--merge", "--json", str(target))) == 0
        data = json.loads(target.read_text())
        entry = data["sweep_H(4,8,2)_fleet"]
        assert entry["curves"][0]["delivered"] == 100
        # the merge never timed the simulation: no bogus wall_time_s in the
        # trajectory, only the (clearly labelled) fold time
        assert "wall_time_s" not in entry
        assert "merge_wall_time_s" in entry

    def test_sharded_rejects_event_engine(self, capsys, tmp_path):
        # The chunk-store mode is `fleet sim`, which always runs the batched
        # engine: it takes no --engine, and `sim` takes no --out-dir.
        with pytest.raises(SystemExit) as excinfo:
            main(self._args(tmp_path, "--engine", "event"))
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["sim", "-p", "4", "-q", "8", "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2


class TestSweepPartialMerge:
    def _args(self, tmp_path, *extra):
        return fleet_sweep_args(tmp_path, *extra)

    def test_partial_merge_reports_progress(self, capsys, tmp_path):
        assert main(self._args(tmp_path, "--max-chunks", "1")) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path, "--merge", "--partial")) == 0
        out = capsys.readouterr().out
        assert "PARTIAL merge" in out
        assert "chunks complete" in out
        # the strict merge of the same store still refuses
        assert main(self._args(tmp_path, "--merge")) == 1

    def test_partial_without_merge_is_rejected(self, capsys, tmp_path):
        assert main(self._args(tmp_path, "--partial")) == 2
        assert "--merge" in capsys.readouterr().err

    def test_partial_merge_of_complete_store_matches_strict(self, capsys, tmp_path):
        assert main(self._args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path, "--merge")) == 0
        strict = capsys.readouterr().out
        assert main(self._args(tmp_path, "--merge", "--partial")) == 0
        partial = capsys.readouterr().out
        strict_rows = [l for l in strict.splitlines() if l and l[0].isdigit()]
        partial_rows = [l for l in partial.splitlines() if l and l[0].isdigit()]
        assert strict_rows == partial_rows


class TestFleetStatusAgreesWithMerge:
    def test_chunk_files_of_another_manifest_are_not_counted(self, capsys, tmp_path):
        # A chunk-size 8 sweep, its manifest.json removed, then one chunk of
        # a chunk-size 4 sweep in the same out-dir: status counts only the
        # new manifest's chunk, the one chunk --merge finds complete.
        import json

        out_dir = tmp_path / "chunks"
        assert main(fleet_sweep_args(tmp_path)) == 0
        (out_dir / "manifest.json").unlink()
        smaller = [*fleet_sweep_args(tmp_path)[:-1], "4"]
        assert main([*smaller, "--max-chunks", "1"]) == 0
        capsys.readouterr()
        assert main(["fleet", "status", "--out-dir", str(out_dir), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert main([*smaller, "--merge"]) == 1
        err = capsys.readouterr().err
        chunks = status["chunks"]
        assert f"{chunks - 1} of {chunks} chunks incomplete" in err
        assert "from a different manifest" in err
        assert status["complete"] == 1
        assert len(list(out_dir.glob("chunk-*.jsonl"))) == 4  # 3 foreign, 1 own

    def test_identity_mismatch_names_no_id_list(self, capsys, tmp_path):
        assert main(fleet_sweep_args(tmp_path, "--max-chunks", "1")) == 0
        capsys.readouterr()
        smaller = [*fleet_sweep_args(tmp_path)[:-1], "4"]
        assert main([*smaller, "--merge"]) != 0
        err = capsys.readouterr().err
        assert "chunk_size: store has 8, caller has 4" in err
        assert "chunk_ids: store has 3 ids from " in err
        assert "', '" not in err  # no list of ids
