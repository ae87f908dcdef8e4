"""Unit tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fridge"])


class TestEncode:
    def test_default_burst_all_schemes(self, capsys):
        code, out, __ = run_cli(capsys, "encode")
        assert code == 0
        assert "dbi-opt" in out
        assert "10001110" in out  # the paper's default burst

    def test_bits_input(self, capsys):
        code, out, __ = run_cli(capsys, "encode", "--bits", "00000000",
                                "--scheme", "dbi-dc")
        assert code == 0
        assert "| dbi-dc |" in out
        assert "I" in out  # the zero byte is inverted

    def test_hex_input(self, capsys):
        code, out, __ = run_cli(capsys, "encode", "--hex", "8e", "86",
                                "--scheme", "dbi-opt")
        assert code == 0
        assert "10001110 10000110" in out

    def test_custom_coefficients(self, capsys):
        code, out, __ = run_cli(capsys, "encode", "--hex", "0f",
                                "--alpha", "0", "--beta", "2",
                                "--scheme", "dbi-dc")
        assert code == 0
        assert "b=2" in out

    @pytest.mark.parametrize("command", ["encode", "granularity"])
    def test_all_zero_coefficients_are_a_usage_error(self, capsys, command):
        code, __, err = run_cli(capsys, command, "--alpha", "0",
                                "--beta", "0")
        assert code == 2
        assert "--alpha/--beta" in err


class TestSchemes:
    def test_lists_all(self, capsys):
        code, out, __ = run_cli(capsys, "schemes")
        assert code == 0
        from repro.core.schemes import available_schemes
        for name in available_schemes():
            assert name in out


class TestPareto:
    def test_default_burst(self, capsys):
        code, out, __ = run_cli(capsys, "pareto")
        assert code == 0
        assert "| transitions | zeros |" in out

    def test_too_long_burst(self, capsys):
        code, __, err = run_cli(capsys, "pareto", "--hex", *(["00"] * 17))
        assert code == 2
        assert "at most 16" in err


class TestSweeps:
    def test_sweep_alpha_small(self, capsys):
        code, out, __ = run_cli(capsys, "sweep-alpha", "--samples", "60",
                                "--points", "5")
        assert code == 0
        assert "AC/DC crossover" in out
        assert "OPT peak gain" in out

    def test_sweep_alpha_plot(self, capsys):
        code, out, __ = run_cli(capsys, "sweep-alpha", "--samples", "40",
                                "--points", "3", "--plot")
        assert code == 0
        assert "o=raw" in out

    def test_sweep_rate_small(self, capsys):
        code, out, __ = run_cli(capsys, "sweep-rate", "--samples", "40",
                                "--max-gbps", "4")
        assert code == 0
        assert "Gbps" in out

    def test_sweep_rate_pod12(self, capsys):
        code, out, __ = run_cli(capsys, "sweep-rate", "--samples", "40",
                                "--max-gbps", "2", "--interface", "pod12")
        assert code == 0

    def test_sweep_load_small(self, capsys):
        code, out, __ = run_cli(capsys, "sweep-load", "--samples", "40",
                                "--max-gbps", "4", "--loads-pf", "3", "8")
        assert code == 0
        assert "best saving" in out


class TestCtrl:
    def test_synthetic_replay(self, capsys):
        code, out, __ = run_cli(capsys, "ctrl", "--bursts", "200",
                                "--channels", "2", "--lanes", "2")
        assert code == 0
        assert "pod135@12Gbps/3pF" in out
        assert "| channel |" in out and "| total |" in out
        assert "pJ/byte" in out

    def test_named_trace(self, capsys):
        pytest.importorskip("numpy", exc_type=ImportError)
        code, out, __ = run_cli(capsys, "ctrl", "--trace", "text",
                                "--bytes", "4096", "--interface", "pod12")
        assert code == 0
        assert "pod12" in out
        assert "4096 bytes" in out

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "dump.bin"
        path.write_bytes(bytes(range(256)) * 4)
        code, out, __ = run_cli(capsys, "ctrl", "--trace", str(path),
                                "--interface", "sstl15", "--lanes", "1")
        assert code == 0
        assert "sstl15" in out

    def test_unknown_trace(self, capsys):
        code, __, err = run_cli(capsys, "ctrl", "--trace", "quantumfoam")
        assert code == 2
        assert "unknown trace" in err or "NumPy" in err

    def test_empty_trace_file(self, capsys, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        code, __, err = run_cli(capsys, "ctrl", "--trace", str(path))
        assert code == 2
        assert "empty" in err

    def test_multi_interface_shares_replays(self, capsys):
        code, out, __ = run_cli(capsys, "ctrl", "--bursts", "100",
                                "--interface", "pod135", "sstl15", "lvstl11")
        assert code == 0
        # SSTL and LVSTL collapse to one transition-only replay.
        assert "replays=2" in out
        for name in ("pod135", "sstl15", "lvstl11"):
            assert name in out

    def test_backend_parity_on_cli_totals(self, capsys):
        outputs = []
        for backend in ("reference", "auto"):
            code, out, __ = run_cli(capsys, "ctrl", "--bursts", "100",
                                    "--backend", backend)
            assert code == 0
            outputs.append([line for line in out.splitlines()
                            if line.startswith("|")])
        assert outputs[0] == outputs[1]

    def test_jobs_flag(self, capsys):
        code, out, __ = run_cli(capsys, "ctrl", "--bursts", "100",
                                "--interface", "pod135", "pod12",
                                "--jobs", "2")
        assert code == 0

    def test_trace_and_bursts_conflict(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "ctrl", "--trace", "text", "--bursts", "10")

    def test_rejects_unknown_interface(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "ctrl", "--interface", "ttl")


class TestTable1:
    def test_table1_prints_rows(self, capsys):
        code, out, __ = run_cli(capsys, "table1")
        assert code == 0
        assert "DBI OPT (Fixed Coeff.)" in out
        assert "Energy/Burst" in out


class TestEngineFlags:
    """--backend / --jobs / --out / --from-artifact on the sweep commands."""

    def test_backend_reference(self, capsys):
        code, out, __ = run_cli(capsys, "sweep-alpha", "--samples", "40",
                                "--points", "3", "--backend", "reference")
        assert code == 0
        assert "AC/DC crossover" in out

    def test_backend_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "sweep-alpha", "--backend", "quantum")

    def test_jobs_parallel(self, capsys):
        code_serial, out_serial, __ = run_cli(
            capsys, "sweep-alpha", "--samples", "40", "--points", "3")
        code_parallel, out_parallel, __ = run_cli(
            capsys, "sweep-alpha", "--samples", "40", "--points", "3",
            "--jobs", "2")
        assert code_serial == code_parallel == 0
        assert out_parallel == out_serial

    def test_encode_backend_flag(self, capsys):
        code, out, __ = run_cli(capsys, "encode", "--hex", "8e",
                                "--scheme", "dbi-opt",
                                "--backend", "reference")
        assert code == 0
        assert "dbi-opt" in out

    def test_out_then_from_artifact(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        code, out_run, __ = run_cli(capsys, "sweep-alpha", "--samples", "40",
                                    "--points", "3", "--out", str(path))
        assert code == 0
        assert path.exists()
        assert "artifact written" in out_run
        code, out_loaded, __ = run_cli(capsys, "sweep-alpha",
                                       "--from-artifact", str(path))
        assert code == 0
        # identical tables, modulo the provenance footer
        table = [line for line in out_run.splitlines()
                 if line.startswith("|")]
        table_loaded = [line for line in out_loaded.splitlines()
                        if line.startswith("|")]
        assert table_loaded == table
        assert "loaded from" in out_loaded

    def test_rate_and_load_artifacts(self, capsys, tmp_path):
        rate_path = tmp_path / "rate.json"
        code, __, ___ = run_cli(capsys, "sweep-rate", "--samples", "40",
                                "--max-gbps", "2", "--out", str(rate_path))
        assert code == 0
        code, out, __ = run_cli(capsys, "sweep-rate",
                                "--from-artifact", str(rate_path))
        assert code == 0
        assert "Gbps" in out

        load_path = tmp_path / "load.json"
        code, __, ___ = run_cli(capsys, "sweep-load", "--samples", "40",
                                "--max-gbps", "2", "--loads-pf", "3",
                                "--out", str(load_path))
        assert code == 0
        code, out, __ = run_cli(capsys, "sweep-load",
                                "--from-artifact", str(load_path))
        assert code == 0
        assert "best saving" in out

    def test_from_artifact_missing_file(self, capsys, tmp_path):
        code, __, err = run_cli(capsys, "sweep-alpha",
                                "--from-artifact", str(tmp_path / "no.json"))
        assert code == 2
        assert "cannot load artifact" in err

    def test_from_artifact_bad_payload(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code, __, err = run_cli(capsys, "sweep-alpha",
                                "--from-artifact", str(path))
        assert code == 2
        assert "cannot load artifact" in err

    def test_from_artifact_non_object_payload(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, __, err = run_cli(capsys, "sweep-alpha",
                                "--from-artifact", str(path))
        assert code == 2
        assert "cannot load artifact" in err

    def test_from_artifact_malformed_totals(self, capsys, tmp_path):
        """A malformed field is a usage error, not a traceback."""
        fixture = (pathlib.Path(__file__).resolve().parent
                   / "sim" / "compat" / "artifacts" / "alpha.json")
        raw = json.loads(fixture.read_text())
        raw["totals"] = "x"
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(raw))
        code, __, err = run_cli(capsys, "sweep-alpha",
                                "--from-artifact", str(path))
        assert code == 2
        assert "cannot load artifact" in err

    def test_from_artifact_warns_on_ignored_flags(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        code, __, ___ = run_cli(capsys, "sweep-alpha", "--samples", "40",
                                "--points", "3", "--out", str(path))
        assert code == 0
        code, __, err = run_cli(capsys, "sweep-alpha", "--samples", "999",
                                "--jobs", "2", "--from-artifact", str(path))
        assert code == 0
        assert "ignored" in err and "--samples" in err and "--jobs" in err

    def test_out_directory_validated_up_front(self, capsys, tmp_path):
        code, __, err = run_cli(capsys, "sweep-alpha", "--samples", "40",
                                "--points", "3", "--out",
                                str(tmp_path / "missing" / "fig.json"))
        assert code == 2
        assert "does not exist" in err

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "sweep-alpha", "--jobs", "0")

    def test_from_artifact_figure_mismatch(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        code, __, ___ = run_cli(capsys, "sweep-alpha", "--samples", "40",
                                "--points", "3", "--out", str(path))
        assert code == 0
        code, __, err = run_cli(capsys, "sweep-rate",
                                "--from-artifact", str(path))
        assert code == 2
        assert "expected 'rate'" in err


class TestFaultsCommand:
    def test_default_table(self, capsys):
        code, out, __ = run_cli(capsys, "faults", "--samples", "60",
                                "--rates", "0.01", "0.1")
        assert code == 0
        assert "| scheme | fault rate |" in out
        assert "dbi-opt" in out
        assert "# backend=" in out

    def test_patterns_population(self, capsys):
        code, out, __ = run_cli(capsys, "faults", "--patterns",
                                "checkerboard", "all_zeros", "--samples",
                                "10", "--schemes", "dbi-dc", "--rates",
                                "0.05")
        assert code == 0
        assert "| dbi-dc |" in out

    def test_backend_parity(self, capsys):
        code_a, out_a, __ = run_cli(capsys, "faults", "--samples", "40",
                                    "--rates", "0.05")
        code_b, out_b, __ = run_cli(capsys, "faults", "--samples", "40",
                                    "--rates", "0.05", "--backend",
                                    "reference")
        assert code_a == code_b == 0
        table = lambda text: [line for line in text.splitlines()
                              if line.startswith("|")]
        assert table(out_a) == table(out_b)

    def test_out_artifact(self, capsys, tmp_path):
        path = tmp_path / "faults.json"
        code, out, __ = run_cli(capsys, "faults", "--samples", "40",
                                "--rates", "0.05", "--out", str(path))
        assert code == 0
        assert f"artifact written to {path}" in out
        from repro.sim.experiments import load_fault_artifact
        assert load_fault_artifact(path).spec.rates == (0.05,)

    def test_out_directory_validated(self, capsys, tmp_path):
        code, __, err = run_cli(capsys, "faults", "--samples", "10",
                                "--out", str(tmp_path / "nope" / "f.json"))
        assert code == 2
        assert "does not exist" in err


class TestGranularityCommand:
    def test_default_table(self, capsys):
        code, out, __ = run_cli(capsys, "granularity", "--samples", "60")
        assert code == 0
        assert "| group size |" in out
        # One row per valid group size plus the header row.
        assert sum(line.startswith("| ") for line in out.splitlines()) == 5

    def test_group_size_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "granularity", "--group-sizes", "3")

    def test_patterns_and_coefficients(self, capsys):
        code, out, __ = run_cli(capsys, "granularity", "--patterns",
                                "--alpha", "2", "--beta", "1",
                                "--group-sizes", "4", "8")
        assert code == 0
        assert "cost (a=2, b=1)" in out

    def test_out_artifact(self, capsys, tmp_path):
        path = tmp_path / "granularity.json"
        code, out, __ = run_cli(capsys, "granularity", "--samples", "40",
                                "--out", str(path))
        assert code == 0
        from repro.sim.experiments import load_granularity_artifact
        loaded = load_granularity_artifact(path)
        assert [row["group_size"] for row in loaded.rows] == [1, 2, 4, 8]

class TestSsoCommand:
    def test_default_table_ranked_worst_first(self, capsys):
        code, out, __ = run_cli(capsys, "sso", "--samples", "60",
                                "--interfaces", "pod135")
        assert code == 0
        assert "| scheme | interface | max SSO |" in out
        assert "# backend=" in out
        body = [line for line in out.splitlines()
                if line.startswith("| ") and "max SSO" not in line]
        maxima = [int(line.split("|")[3]) for line in body]
        assert maxima == sorted(maxima, reverse=True)

    def test_chained_backend_parity(self, capsys):
        base = ("sso", "--samples", "40", "--schemes", "raw", "dbi-dc",
                "--interfaces", "pod135", "--chained")
        code_a, out_a, __ = run_cli(capsys, *base)
        code_b, out_b, __ = run_cli(capsys, *base, "--backend", "reference")
        assert code_a == code_b == 0
        table = lambda text: [line for line in text.splitlines()
                              if line.startswith("|")]
        assert table(out_a) == table(out_b)
        assert "chained boundary" in out_a

    def test_patterns_population(self, capsys):
        code, out, __ = run_cli(capsys, "sso", "--patterns", "checkerboard",
                                "--samples", "10", "--schemes", "dbi-ac",
                                "--interfaces", "lvstl11")
        assert code == 0
        assert "| dbi-ac | lvstl11 |" in out

    def test_out_artifact(self, capsys, tmp_path):
        path = tmp_path / "sso.json"
        code, out, __ = run_cli(capsys, "sso", "--samples", "40",
                                "--interfaces", "pod135", "lvstl11",
                                "--out", str(path))
        assert code == 0
        assert f"artifact written to {path}" in out
        from repro.sim.experiments import load_sso_artifact
        loaded = load_sso_artifact(path)
        assert loaded.spec.interfaces == ("pod135", "lvstl11")

    def test_interface_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "sso", "--interfaces", "martian")

    def test_accepts_cache_dir(self, capsys, tmp_path):
        code, out, __ = run_cli(capsys, "sso", "--samples", "30",
                                "--schemes", "raw", "--interfaces", "pod135",
                                "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        code2, out2, __ = run_cli(capsys, "sso", "--samples", "30",
                                  "--schemes", "raw", "--interfaces",
                                  "pod135", "--cache-dir",
                                  str(tmp_path / "cache"))
        assert code2 == 0
        assert "cache_hits=1" in out2


class TestCtrlArtifacts:
    def test_out_then_from_artifact(self, capsys, tmp_path):
        path = tmp_path / "replay.json"
        code, direct, __ = run_cli(capsys, "ctrl", "--bursts", "120",
                                   "--channels", "2", "--lanes", "2",
                                   "--out", str(path))
        assert code == 0
        assert f"artifact written to {path}" in direct

        code, loaded, __ = run_cli(capsys, "ctrl", "--from-artifact",
                                   str(path))
        assert code == 0
        assert f"loaded from {path}" in loaded
        # The rendered tables are identical to the simulating run's.
        direct_rows = [line for line in direct.splitlines()
                       if line.startswith("|") or line.startswith("##")]
        loaded_rows = [line for line in loaded.splitlines()
                       if line.startswith("|") or line.startswith("##")]
        assert direct_rows == loaded_rows

    def test_from_artifact_bad_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"format\": \"nope\"}\n")
        # A saved replay whose trace-source descriptor is not an object.
        broken = tmp_path / "broken_source.json"
        code, __, ___ = run_cli(capsys, "ctrl", "--bursts", "50",
                                "--out", str(broken))
        assert code == 0
        artifact = json.loads(broken.read_text())
        payload = artifact["spec"]["payload"]
        artifact["spec"]["payload"] = {"digest": payload["digest"],
                                       "bytes": payload["bytes"],
                                       "source": []}
        broken.write_text(json.dumps(artifact))
        for bad in (path, broken):
            code, __, err = run_cli(capsys, "ctrl", "--from-artifact",
                                    str(bad))
            assert code == 2
            assert "cannot load artifact" in err
            assert "Traceback" not in err

    def test_from_artifact_rejects_sweep_kind(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, __, err = run_cli(capsys, "sweep-alpha", "--samples", "30",
                                "--points", "3", "--out", str(path))
        assert code == 0
        code, __, err = run_cli(capsys, "ctrl", "--from-artifact", str(path))
        assert code == 2
        assert "cannot load artifact" in err

    def test_out_directory_validated(self, capsys, tmp_path):
        code, __, err = run_cli(capsys, "ctrl", "--bursts", "10",
                                "--out", str(tmp_path / "nope" / "r.json"))
        assert code == 2
        assert "does not exist" in err


class TestCacheDirFlag:
    def test_ctrl_warm_run_hits_disk_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, cold, __ = run_cli(capsys, "ctrl", "--bursts", "100",
                                 "--cache-dir", cache_dir)
        assert code == 0
        assert "replays=1" in cold
        code, warm, __ = run_cli(capsys, "ctrl", "--bursts", "100",
                                 "--cache-dir", cache_dir)
        assert code == 0
        assert "replays=0" in warm
        assert "cache_hits=1" in warm
        cold_rows = [line for line in cold.splitlines()
                     if line.startswith("|")]
        warm_rows = [line for line in warm.splitlines()
                     if line.startswith("|")]
        assert cold_rows == warm_rows

    def test_sweep_warm_run_matches_cold(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ("sweep-alpha", "--samples", "40", "--points", "3",
                "--cache-dir", cache_dir)
        code, cold, __ = run_cli(capsys, *argv)
        assert code == 0
        code, warm, __ = run_cli(capsys, *argv)
        assert code == 0
        assert [line for line in cold.splitlines() if line.startswith("|")] \
            == [line for line in warm.splitlines() if line.startswith("|")]

    def test_faults_accepts_cache_dir(self, capsys, tmp_path):
        code, out, __ = run_cli(capsys, "faults", "--samples", "30",
                                "--rates", "0.05", "--cache-dir",
                                str(tmp_path / "cache"))
        assert code == 0
        import os
        assert os.listdir(tmp_path / "cache")  # entries were persisted

    def test_granularity_accepts_cache_dir(self, capsys, tmp_path):
        code, out, __ = run_cli(capsys, "granularity", "--samples", "30",
                                "--group-sizes", "4", "--cache-dir",
                                str(tmp_path / "cache"))
        assert code == 0


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7351
        assert args.cache_dir is None
        assert args.artifact_dir is None

    def test_flags(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0",
             "--cache-dir", "/tmp/c", "--artifact-dir", "/tmp/a",
             "--backend", "reference"])
        assert args.port == 0
        assert args.cache_dir == "/tmp/c"
        assert args.artifact_dir == "/tmp/a"
        assert args.backend == "reference"

    def test_serve_and_exit(self, capsys, monkeypatch):
        """`repro serve` on an ephemeral port announces its address."""
        from repro.service import daemon as daemon_module

        started = {}

        class _Recorder(daemon_module.ExperimentDaemon):
            def serve_forever(self):
                started["address"] = self.address
                raise KeyboardInterrupt

            def shutdown(self):
                # BaseServer.shutdown() would wait for a serve loop that
                # never started; closing the socket is all that's left.
                self._server.server_close()

        monkeypatch.setattr(daemon_module, "ExperimentDaemon", _Recorder)
        code, out, __ = run_cli(capsys, "serve", "--port", "0")
        assert code == 0
        host, port = started["address"]
        assert f"listening on {host}:{port}" in out


class TestCtrlStreaming:
    """The streaming/adaptive additions to `repro ctrl`."""

    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "dump.bin"
        path.write_bytes(bytes((i * 37) & 0xFF for i in range(20000)))
        return str(path)

    def test_trace_file_streams_in_chunks(self, capsys, trace_path):
        code, out, __ = run_cli(capsys, "ctrl", "--trace-file", trace_path,
                                "--chunk-bytes", "4096")
        assert code == 0
        assert "streamed in 4096-byte chunks" in out
        assert "20000 bytes" in out

    def test_trace_path_also_streams(self, capsys, trace_path):
        """--trace with an existing file routes through the source too."""
        code, out, __ = run_cli(capsys, "ctrl", "--trace", trace_path)
        assert code == 0
        assert "streamed in" in out

    def test_streamed_equals_inline_bursts(self, capsys, tmp_path):
        """A file of the synthetic payload prices identically to --bursts."""
        from repro.workloads.population import RandomPopulation

        payload = b"".join(bytes(burst.data) for burst in
                           RandomPopulation(count=100, seed=0x0DB1))
        path = tmp_path / "same.bin"
        path.write_bytes(payload)
        __, inline, ___ = run_cli(capsys, "ctrl", "--bursts", "100")
        __, streamed, ___ = run_cli(capsys, "ctrl", "--trace-file",
                                    str(path), "--chunk-bytes", "512")
        table = [line for line in inline.splitlines()
                 if line.startswith("|")]
        assert table == [line for line in streamed.splitlines()
                         if line.startswith("|")]

    def test_bytes_caps_the_stream(self, capsys, trace_path):
        code, out, __ = run_cli(capsys, "ctrl", "--trace-file", trace_path,
                                "--bytes", "8192")
        assert code == 0
        assert "8192 bytes" in out

    def test_schedule_renders_segments(self, capsys, trace_path):
        code, out, __ = run_cli(capsys, "ctrl", "--trace-file", trace_path,
                                "--schedule", "pod135@12", "pod12@8:100")
        assert code == 0
        assert "(schedule, per segment)" in out
        assert "| pod135@12Gbps/3pF |" in out
        assert "| pod12@8Gbps/3pF |" in out

    def test_track_renders_segments(self, capsys, trace_path):
        code, out, __ = run_cli(capsys, "ctrl", "--trace-file", trace_path,
                                "--track", "pod135@12", "pod12@8",
                                "--chunk-bytes", "2048")
        assert code == 0
        assert "(tracking, per segment)" in out

    def test_schedule_artifact_round_trip(self, capsys, tmp_path,
                                          trace_path):
        out_path = tmp_path / "replay.json"
        code, direct, __ = run_cli(capsys, "ctrl", "--trace-file",
                                   trace_path, "--schedule", "pod135@12",
                                   "pod12@8:100", "--out", str(out_path))
        assert code == 0
        code, loaded, __ = run_cli(capsys, "ctrl", "--from-artifact",
                                   str(out_path))
        assert code == 0
        assert ([line for line in direct.splitlines()
                 if line.startswith("|")]
                == [line for line in loaded.splitlines()
                    if line.startswith("|")])

    def test_schedule_missing_start_is_an_error(self, capsys):
        code, __, err = run_cli(capsys, "ctrl", "--bursts", "50",
                                "--schedule", "pod135@12", "pod12@8")
        assert code == 2
        assert ":START" in err

    def test_schedule_bad_interface(self, capsys):
        code, __, err = run_cli(capsys, "ctrl", "--bursts", "50",
                                "--schedule", "ttl@12")
        assert code == 2

    def test_track_rejects_start_markers(self, capsys):
        code, __, err = run_cli(capsys, "ctrl", "--bursts", "50",
                                "--track", "pod135@12", "pod12@8:100")
        assert code == 2
        assert "--schedule" in err

    def test_schedule_and_track_conflict(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "ctrl", "--bursts", "50",
                    "--schedule", "pod135@12",
                    "--track", "pod135@12", "pod12@8")

    def test_missing_trace_file(self, capsys):
        code, __, err = run_cli(capsys, "ctrl", "--trace-file",
                                "/no/such/trace.bin")
        assert code == 2
        assert "trace file" in err


class TestNumericFlagValidation:
    @pytest.mark.parametrize("argv, flag", [
        (["sweep-alpha", "--samples", "0"], "--samples"),
        (["sweep-rate", "--samples", "0"], "--samples"),
        (["sweep-load", "--samples", "0"], "--samples"),
        (["faults", "--samples", "0"], "--samples"),
        (["granularity", "--samples", "0"], "--samples"),
        (["sso", "--samples", "0"], "--samples"),
        (["sweep-alpha", "--points", "1"], "--points"),
        (["sweep-rate", "--max-gbps", "0"], "--max-gbps"),
        (["sweep-load", "--max-gbps", "0"], "--max-gbps"),
        (["sso", "--threshold", "20"], "--threshold"),
        (["sso", "--threshold", "-1"], "--threshold"),
        (["sweep-rate", "--c-load-pf", "-1"], "--c-load-pf"),
        (["sweep-rate", "--c-load-pf", "nan"], "--c-load-pf"),
        (["sweep-load", "--loads-pf", "1", "inf"], "--loads-pf"),
        (["ctrl", "--c-load-pf", "nan"], "--c-load-pf"),
        (["ctrl", "--data-rate-gbps", "0"], "--data-rate-gbps"),
        (["faults", "--rates", "2"], "--rates"),
        (["faults", "--rates", "nan"], "--rates"),
        (["faults", "--rates", "-0.1"], "--rates"),
        (["encode", "--alpha", "nan"], "--alpha"),
        (["granularity", "--alpha", "-1"], "--alpha"),
        (["granularity", "--beta", "inf"], "--beta"),
        (["table1", "--bursts", "1"], "--bursts"),
        (["sweep-alpha", "--seed", "-1"], "--seed"),
        (["sso", "--seed", "-1"], "--seed"),
        (["ctrl", "--seed", "-1"], "--seed"),
        (["ctrl", "--track", "pod135@12", "pod12@2",
          "--track-half-life", "nan"], "--track-half-life"),
        (["serve", "--port", "-5"], "--port"),
        (["serve", "--port", "70000"], "--port"),
        (["serve", "--max-connections", "-1"], "--max-connections"),
        (["serve", "--request-timeout", "-1"], "--request-timeout"),
        (["serve", "--request-timeout", "nan"], "--request-timeout"),
        (["encode", "--hex", "zz"], "--hex"),
        (["encode", "--hex", "1ff"], "--hex"),
        (["encode", "--bits", "102"], "--bits"),
        (["encode", "--bits", "111111111"], "--bits"),
        (["pareto", "--hex", "zz"], "--hex"),
    ])
    def test_bad_value_is_a_usage_error(self, capsys, argv, flag):
        """Out-of-range values exit 2 with argparse's usage message
        naming the flag, never a traceback from deep in the engine."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert f"error: argument {flag}:" in err
