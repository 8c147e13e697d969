"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro import __version__
from repro.cli import build_parser, main, train_scaling_estimator
from repro.core.serialization import load_estimator
from repro.experiments.config import get_config
from repro.experiments.registry import EXPERIMENTS


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses_with_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "figure_7", "--profile", "fast", "--output", str(tmp_path)]
        )
        assert args.command == "run"
        assert args.experiment == "figure_7"
        assert args.profile == "fast"
        assert args.output == tmp_path

    def test_estimate_command_parses_with_options(self):
        args = build_parser().parse_args(
            ["estimate", "--queries", "250", "--resource", "io", "--seed", "3"]
        )
        assert args.command == "estimate"
        assert args.queries == 250
        assert args.resource == "io"
        assert args.seed == 3
        assert args.model is None

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.queries == 100
        assert args.resource == "both"

    def test_train_command_parses(self, tmp_path):
        args = build_parser().parse_args(
            ["train", "--out", str(tmp_path / "m.bin"), "--queries", "48"]
        )
        assert args.command == "train"
        assert args.queries == 48

    def test_models_inspect_parses(self, tmp_path):
        args = build_parser().parse_args(["models", "inspect", str(tmp_path / "m.bin")])
        assert args.command == "models"
        assert args.models_command == "inspect"

    def test_models_list_requires_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["models", "list"])
        assert excinfo.value.code == 2
        assert "--registry" in capsys.readouterr().err

    def test_models_diff_parses(self, tmp_path):
        args = build_parser().parse_args(
            ["models", "diff", "--registry", str(tmp_path), "v0001", "v0002"]
        )
        assert args.models_command == "diff"
        assert args.version_a == "v0001"
        assert args.version_b == "v0002"

    def test_models_promote_parses(self, tmp_path):
        args = build_parser().parse_args(
            ["models", "promote", "--registry", str(tmp_path), "v0002"]
        )
        assert args.models_command == "promote"
        assert args.version == "v0002"

    def test_adapt_bench_parses_with_defaults(self):
        args = build_parser().parse_args(["adapt-bench"])
        assert args.command == "adapt-bench"
        assert args.out is None and args.registry is None
        assert args.pre == 96 and args.drift == 192 and args.post == 96
        assert args.trip_threshold == pytest.approx(0.25)

    def test_models_unknown_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["models", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestMain:
    def test_no_command_returns_2_with_usage(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "subcommand is required" in err

    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out

    def test_run_cheap_experiment_and_write_output(self, capsys, tmp_path):
        assert main(["run", "figure_7", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        written = tmp_path / "figure_7.txt"
        assert written.exists()
        assert "Scaling-function selection" in written.read_text()

    def test_unknown_experiment_rejected_with_usage_code(self, capsys):
        """Usage errors return the documented exit code 2 — ``main`` never
        leaks SystemExit to embedding callers."""
        assert main(["run", "table_99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_version_flag_returns_0(self, capsys):
        """``--version`` exits 0 through ``main`` (documented code), not via
        an uncaught SystemExit."""
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_option_returns_2(self, capsys):
        assert main(["--no-such-flag"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_models_without_subcommand_returns_2(self, capsys):
        assert main(["models"]) == 2
        err = capsys.readouterr().err
        assert "inspect" in err
        assert "list" in err and "diff" in err and "promote" in err

    def test_train_rejects_unwritable_output_before_training(self, capsys, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("plain file")
        target = blocker / "model.bin"  # parent is a file -> mkdir fails fast
        assert main(["train", "--out", str(target), "--queries", "8"]) == 2
        assert "cannot write artifact" in capsys.readouterr().err

    def test_models_inspect_rejects_corrupt_file(self, capsys, tmp_path):
        """Corrupt artifacts are a data error (exit 1), not a usage error."""
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"\x00" * 32)
        assert main(["models", "inspect", str(bogus)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_models_inspect_rejects_pickle_artifacts_without_unpickling(
        self, capsys, tmp_path
    ):
        """Adapter artifacts are refused on magic alone — the embedded pickle
        must never be deserialised by the CLI."""
        from repro.api.adapters import ADAPTER_MAGIC

        path = tmp_path / "adapter.bin"
        # Deliberately not a valid envelope: if the CLI tried to parse or
        # unpickle it, the error text would differ.
        path.write_bytes(ADAPTER_MAGIC + b"\x01\x02\x03")
        assert main(["models", "inspect", str(path)]) == 1
        assert "pickled baseline technique" in capsys.readouterr().err

    def test_estimate_with_missing_artifact_exits_1_with_message(
        self, capsys, tmp_path
    ):
        """A missing model path is a one-line data error, not a traceback."""
        missing = tmp_path / "no_such_model.bin"
        assert main(
            ["estimate", "--model", str(missing), "--profile", "fast"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one line, newline-terminated
        assert "Traceback" not in err

    def test_estimate_with_corrupt_artifact_exits_1_with_message(
        self, capsys, tmp_path
    ):
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"\xde\xad\xbe\xef" * 16)
        assert main(
            ["estimate", "--model", str(corrupt), "--profile", "fast"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestTrainingSizes:
    """Training sizes that cannot train are usage errors, raised before training."""

    # Small serving sizes keep a regression (a run that trains anyway) short.
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--queries", "0"],
            ["train", "--queries", "-2"],
            ["train", "--iterations", "0"],
            ["train", "--iterations", "-3"],
            ["estimate", "--train-queries", "0", "--queries", "1"],
            ["estimate", "--iterations", "0", "--queries", "1"],
            ["serve-bench", "--train-queries", "0", "--requests", "1", "--warmup", "0"],
            ["serve-bench", "--iterations", "-3", "--requests", "1", "--warmup", "0"],
            ["adapt-bench", "--train-queries", "0", "--pre", "1", "--drift", "1", "--post", "1"],
            ["adapt-bench", "--iterations", "0", "--pre", "1", "--drift", "1", "--post", "1"],
        ],
    )
    def test_below_one_exits_2(self, argv, capsys, tmp_path):
        out = tmp_path / "model.bin"
        if argv[0] == "train":
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "must be at least 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_train_without_a_model_set_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "model.bin"
        argv = ["train", "--out", str(out), "--queries", "2", "--iterations", "2"]
        assert main([*argv, "--profile", "fast"]) == 2  # two queries: too few rows
        assert "no model set" in capsys.readouterr().err
        assert not out.exists()


class TestTrainServeWorkflow:
    """train --out, then estimate --model: serve without retraining, exactly."""

    # --profile is pinned so the suite is immune to a REPRO_PROFILE env var.
    _TRAIN_ARGS = [
        "--queries", "48", "--iterations", "12", "--train-seed", "7",
        "--profile", "fast",
    ]

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.bin"
        assert main(["train", "--out", str(path), *self._TRAIN_ARGS]) == 0
        return path

    def test_train_reports_artifact(self, artifact, capsys):
        assert artifact.exists() and artifact.stat().st_size > 0

    def test_models_inspect_reports_size(self, artifact, capsys):
        assert main(["models", "inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "format version: 3" in out
        assert "resources: cpu, io" in out
        assert "model sets:" in out

    def test_models_inspect_reports_flat_layout(self, artifact, capsys):
        assert main(["models", "inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "flat layout:" in out
        assert "compiled ensemble(s)" in out
        assert "int32" in out and "float64" in out

    def test_estimate_from_artifact_serves_without_retraining(self, artifact, capsys):
        assert main(
            ["estimate", "--model", str(artifact), "--queries", "12", "--show", "3",
             "--profile", "fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "no retraining" in out
        assert "workload total (cpu):" in out
        assert "workload total (io):" in out

    def test_artifact_matches_in_memory_estimator_exactly(self, artifact):
        """The acceptance property: loaded artifact == freshly trained model."""
        config = get_config("fast")
        in_memory = train_scaling_estimator(
            config, ("cpu", "io"), n_queries=48, seed=7, iterations=12
        )
        loaded = load_estimator(artifact)
        from repro.catalog.statistics import StatisticsCatalog
        from repro.catalog.tpch import build_tpch_catalog
        from repro.optimizer.planner import Planner
        from repro.query.tpch_templates import tpch_template_set

        catalog = build_tpch_catalog(scale_factor=0.1, skew_z=config.tpch_skew)
        planner = Planner(catalog, StatisticsCatalog(catalog))
        queries = tpch_template_set().generate(catalog, 10, seed=23)
        plans = [planner.plan(query) for query in queries]
        for resource in ("cpu", "io"):
            assert np.array_equal(
                loaded.estimate_workload(plans, (resource,)).query_totals(resource),
                in_memory.estimate_workload(plans, (resource,)).query_totals(resource),
            )

    def test_estimate_with_missing_resource_rejected(self, tmp_path, capsys):
        path = tmp_path / "cpu_only.bin"
        assert main(
            ["train", "--out", str(path), "--resource", "cpu", *self._TRAIN_ARGS]
        ) == 0
        capsys.readouterr()
        assert main(
            ["estimate", "--model", str(path), "--resource", "io", "--profile", "fast"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_estimate_both_on_partial_artifact_notes_missing_resource(
        self, tmp_path, capsys
    ):
        path = tmp_path / "cpu_only.bin"
        assert main(
            ["train", "--out", str(path), "--resource", "cpu", *self._TRAIN_ARGS]
        ) == 0
        capsys.readouterr()
        assert main(
            ["estimate", "--model", str(path), "--queries", "6", "--profile", "fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "artifact models cpu only" in out
        assert "workload total (io)" not in out


class TestModelRegistryCLI:
    """models list / diff / promote against a real on-disk registry."""

    @pytest.fixture(scope="class")
    def registry_root(self, tmp_path_factory, trained_estimator):
        from repro.adaptive.registry import ModelRegistry

        root = tmp_path_factory.mktemp("cli_registry")
        registry = ModelRegistry(root)
        registry.register(
            trained_estimator,
            metrics={"cpu": {"holdout_median_relative_error": 0.05}},
            note="seed",
        )
        registry.promote("v0001")
        registry.register(
            trained_estimator,
            metrics={"cpu": {"holdout_median_relative_error": 0.03}},
            parent="v0001",
            note="refit",
        )
        return root

    def test_list_marks_active_version(self, registry_root, capsys):
        assert main(["models", "list", "--registry", str(registry_root)]) == 0
        out = capsys.readouterr().out
        assert "v0001" in out and "v0002" in out
        assert "active" in out and "candidate" in out
        # Exactly one active marker — the promoted seed version.
        assert sum("*" in line for line in out.splitlines()) == 1

    def test_list_missing_registry_exits_1(self, tmp_path, capsys):
        assert main(
            ["models", "list", "--registry", str(tmp_path / "nowhere")]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_diff_reports_metric_delta_and_lineage(self, registry_root, capsys):
        assert main(
            ["models", "diff", "--registry", str(registry_root), "v0001", "v0002"]
        ) == 0
        out = capsys.readouterr().out
        assert "v0001" in out and "v0002" in out
        assert "holdout_median_relative_error" in out
        assert "-0.02" in out  # 0.03 - 0.05, the refit improved
        assert "v0001" in out  # lineage: b's parent

    def test_diff_unknown_version_exits_1(self, registry_root, capsys):
        assert main(
            ["models", "diff", "--registry", str(registry_root), "v0001", "v9999"]
        ) == 1
        assert "v9999" in capsys.readouterr().err

    def test_promote_moves_active_pointer(self, registry_root, capsys):
        from repro.adaptive.registry import ModelRegistry

        assert main(
            ["models", "promote", "--registry", str(registry_root), "v0002"]
        ) == 0
        assert "v0002" in capsys.readouterr().out
        registry = ModelRegistry(registry_root)
        assert registry.active == "v0002"
        assert registry.manifest("v0001").status == "retired"

    def test_promote_unknown_version_exits_1(self, registry_root, capsys):
        assert main(
            ["models", "promote", "--registry", str(registry_root), "v9999"]
        ) == 1
        assert "v9999" in capsys.readouterr().err

    def test_inspect_registry_artifact_prints_manifest(self, registry_root, capsys):
        artifact = registry_root / "v0002" / "model.bin"
        assert main(["models", "inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "registry version: v0002" in out
        assert "registry checksum:" in out
        assert "holdout_median_relative_error" in out
        assert "lineage: refit of v0001" in out
