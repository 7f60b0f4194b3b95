"""Tests for the repro.cli command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main, parse_systems, parse_widths


class TestParsers:
    def test_parse_systems(self):
        assert parse_systems("2,2;2,2") == [(2, 2), (2, 2)]
        assert parse_systems("3,3,4") == [(3, 3, 4)]
        assert parse_systems("2, 6; 12") == [(2, 6), (12,)]

    def test_parse_systems_invalid(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_systems("a,b")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_systems(";")

    def test_parse_widths(self):
        assert parse_widths("1,2,2,2,1") == [1, 2, 2, 2, 1]

    def test_parse_widths_invalid(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_widths("one,two")

    def test_build_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_challenge_serve_workers_flag(self):
        # batcher worker threads; the CI scale-out smoke passes --workers 2
        serve = ["challenge", "serve", "--dir", "net", "--neurons", "8"]
        assert build_parser().parse_args(serve + ["--workers", "2"]).workers == 2
        assert build_parser().parse_args(serve).workers is None

    def test_challenge_has_no_workers_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["challenge", "--workers", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err

    def test_challenge_serve_has_no_max_wait_flag(self, capsys):
        # the coalescing window is gone: a free batcher worker dispatches
        # whatever is queued at once
        with pytest.raises(SystemExit) as excinfo:
            main(["challenge", "serve", "--dir", "net", "--neurons", "8",
                  "--max-wait-ms", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err


class TestCommands:
    def test_generate_and_info_round_trip(self, tmp_path, capsys):
        out = tmp_path / "net.npz"
        code = main(
            ["generate", "--systems", "2,2;2,2", "--widths", "1,2,2,2,1", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "generated" in captured and "saved" in captured

        code = main(["info", str(out)])
        assert code == 0
        info_output = capsys.readouterr().out
        assert "density" in info_output
        assert "True" in info_output  # symmetric column

    def test_generate_without_out(self, capsys):
        assert main(["generate", "--systems", "2,2", "--widths", "1,1,1"]) == 0
        assert "saved" not in capsys.readouterr().out

    def test_verify_success(self, capsys):
        code = main(["verify", "--systems", "2,2;4", "--widths", "1,2,2,1"])
        assert code == 0
        assert "Theorem 1 verified: True" in capsys.readouterr().out

    def test_density_report(self, capsys):
        code = main(["density", "--systems", "3,3;9", "--widths", "1,1,1,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "eq. 4" in out and "eq. 5" in out and "eq. 6" in out

    def test_challenge_command(self, capsys):
        code = main(
            ["challenge", "--neurons", "16", "--layers", "4", "--connections", "4", "--batch", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified against dense reference: True" in out

    def test_challenge_chunk_size_keeps_categories(self, capsys):
        argv = ["challenge", "--neurons", "16", "--layers", "4", "--connections", "4",
                "--batch", "32"]

        def categories_line(extra):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            assert "verified against dense reference: True" in out
            return [line for line in out.splitlines() if line.startswith("categories:")]

        unchunked = categories_line([])
        assert len(unchunked) == 1
        assert categories_line(["--chunk-size", "8"]) == unchunked

    def test_design_command(self, capsys):
        code = main(["design", "--layer-widths", "32,64,64,16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved widths: (32, 64, 64, 16)" in out

    @pytest.mark.parametrize("activations", ["dense", "sparse", "auto"])
    def test_challenge_activation_policies(self, capsys, activations):
        code = main(
            ["challenge", "--neurons", "16", "--layers", "4", "--connections", "4",
             "--batch", "8", "--activations", activations]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"activations: policy {activations}" in out
        assert "peak nnz" in out
        assert "verified against dense reference: True" in out

    def test_challenge_sparse_crossover_flag(self, capsys):
        code = main(
            ["challenge", "--neurons", "16", "--layers", "3", "--connections", "4",
             "--batch", "8", "--sparse-crossover", "0.9"]
        )
        assert code == 0
        assert "verified against dense reference: True" in capsys.readouterr().out

    def test_challenge_save_dir_and_verify(self, tmp_path, capsys):
        directory = tmp_path / "net"
        code = main(
            ["challenge", "--neurons", "16", "--layers", "4", "--connections", "4",
             "--batch", "8", "--save-dir", str(directory)]
        )
        assert code == 0
        assert (directory / "neuron16-meta.tsv").exists()
        assert (directory / "neuron16-cache.npz").exists()
        capsys.readouterr()

        code = main(
            ["challenge", "verify", "--dir", str(directory), "--neurons", "16",
             "--batch", "6", "--activations", "sparse"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded from" in out
        assert "checksum" in out
        assert "verified against dense reference: True" in out

    def test_challenge_generate_streams_to_disk(self, tmp_path, capsys):
        directory = tmp_path / "net"
        code = main(
            ["challenge", "generate", "--neurons", "32", "--layers", "3",
             "--connections", "4", "--out", str(directory)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "edges/s" in out and "streaming" in out
        for i in (1, 2, 3):
            assert (directory / f"neuron32-l{i}.tsv").exists()
        assert (directory / "neuron32-meta.tsv").exists()
        assert (directory / "neuron32-cache.npz").exists()

        code = main(
            ["challenge", "verify", "--dir", str(directory), "--neurons", "32",
             "--batch", "6"]
        )
        assert code == 0
        assert "verified against dense reference: True" in capsys.readouterr().out

    def test_challenge_generate_no_sidecar_no_shuffle(self, tmp_path, capsys):
        directory = tmp_path / "net"
        code = main(
            ["challenge", "generate", "--neurons", "16", "--layers", "2",
             "--connections", "4", "--no-shuffle", "--no-sidecar",
             "--out", str(directory)]
        )
        assert code == 0
        assert "TSV only" in capsys.readouterr().out
        assert not (directory / "neuron16-cache.npz").exists()
        from repro.challenge.io import load_challenge_network

        loaded = load_challenge_network(directory, 16, use_cache=False)
        # unshuffled layers are the deterministic circulant: all identical
        assert loaded.weights[0].same_pattern(loaded.weights[1])

    def test_challenge_generate_flags_before_subcommand_survive(self, tmp_path, capsys):
        directory = tmp_path / "net"
        code = main(
            ["challenge", "--neurons", "16", "--layers", "2", "--connections", "4",
             "generate", "--out", str(directory)]
        )
        assert code == 0
        assert (directory / "neuron16-l2.tsv").exists()
        capsys.readouterr()

    def test_challenge_generate_invalid_size_returns_one(self, tmp_path, capsys):
        code = main(
            ["challenge", "generate", "--neurons", "10", "--layers", "2",
             "--connections", "4", "--out", str(tmp_path / "net")]
        )
        assert code == 1
        assert "divisible" in capsys.readouterr().err

    def test_challenge_verify_flags_before_subcommand_survive(self, tmp_path, capsys):
        # options given before the `verify` token must not be clobbered
        # by the subparser's defaults
        from repro.challenge.generator import generate_challenge_network
        from repro.challenge.io import save_challenge_network

        network = generate_challenge_network(8, 2, connections=2, seed=0)
        save_challenge_network(network, tmp_path)
        code = main(
            ["challenge", "--backend", "vectorized", "--activations", "sparse",
             "verify", "--dir", str(tmp_path), "--neurons", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend: vectorized, activations: sparse" in out

    def test_challenge_verify_no_cache(self, tmp_path, capsys):
        from repro.challenge.generator import generate_challenge_network
        from repro.challenge.io import save_challenge_network

        network = generate_challenge_network(8, 2, connections=2, seed=0)
        save_challenge_network(network, tmp_path)
        code = main(
            ["challenge", "verify", "--dir", str(tmp_path), "--neurons", "8", "--no-cache"]
        )
        assert code == 0
        assert "verified against dense reference: True" in capsys.readouterr().out

    def test_challenge_verify_missing_dir_returns_one(self, tmp_path, capsys):
        code = main(
            ["challenge", "verify", "--dir", str(tmp_path / "nope"), "--neurons", "8"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_library_error_returns_one(self, capsys):
        # constraint violation: products differ
        code = main(["generate", "--systems", "2,2;3,3", "--widths", "1,1,1,1,1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_info_missing_file_returns_one(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "missing.npz")])
        assert code == 1


class TestBackendsCommand:
    def test_backends_prints_capability_report(self, capsys):
        import repro.backends as backends

        code = main(["backends"])
        assert code == 0
        out = capsys.readouterr().out
        for name in backends.available_backends():
            assert name in out
        for name, reason in backends.unavailable_backends().items():
            assert name in out
            assert "missing" in out
        assert "active" in out
        assert "REPRO_BACKEND" in out

    def test_backends_probe_reports_auto_choice(self, capsys):
        from repro.backends import selection

        selection._reset_cache()
        try:
            code = main(["backends", "--probe"])
        finally:
            selection._reset_cache()
        assert code == 0
        out = capsys.readouterr().out
        assert "auto would select:" in out
        assert "probe=" in out
