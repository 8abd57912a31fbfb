import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import timeflow.circuits as circuits
import timeflow.cli as cli
import timeflow.properties as properties
from oracles import indented_json, write_fid_csv, write_spectrum_csv
from strategies import json_reports, nmr_reports
from test_golden import CASES, run_case
from timeflow.cli import main
from timeflow.formats import (
    MAX_DIM, MAX_POINTS, MAX_SPINS, load_sequence, load_spin_system, vector_pairs,
)
from timeflow.linalg import INPUT_TOL, random_unitary
from timeflow.nmr import fid, pauli_decompose, run_sequence, spectrum

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = CONFIGS.parent / "tests" / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, report = run_json(
            capsys, "verify", "--trials", "25", "--seed", "11"
        )
        assert code == 0
        assert report["all_pass"] is True
        assert report["config"]["seed"] == 11
        assert report["config"]["tolerance"] == 1e-9
        names = {p["property"] for p in report["properties"]}
        assert "semantics_equivalence" in names
        assert "local_frame_relation" in names

    def test_injected_fault_detected(self, capsys):
        code, report = run_json(
            capsys, "verify", "--trials", "10", "--inject-fault"
        )
        assert code == 1
        assert report["all_pass"] is False
        assert "chain_consistency" in report["failing"]
        assert "semantics_equivalence" in report["failing"]

    def test_zero_trials_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2

    def test_non_integer_dims_entry_names_the_flag(self, capsys):
        code = main(["verify", "--dims", "2,x"])
        assert code == 2
        assert "--dims entry 'x' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["100000", "2,300", f"3,{MAX_DIM + 1},2"])
    def test_oversized_dims_entry_rejected_before_drawing(self, capsys, monkeypatch, dims):
        # the suites are replaced, so nothing is drawn or allocated either way
        monkeypatch.setattr(properties, "run_all", lambda **_: pytest.fail("suites ran"))
        code = main(["verify", "--dims", dims, "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        entry = max(int(d) for d in dims.split(","))
        assert f"--dims entry {entry} out of range: dimensions are 2 to {MAX_DIM}" in captured.err

    @pytest.mark.parametrize("dims,entry", [("1", 1), ("2,0", 0), ("3,-2", -2)])
    def test_dims_entry_below_two_rejected(self, capsys, monkeypatch, dims, entry):
        monkeypatch.setattr(properties, "run_all", lambda **_: pytest.fail("suites ran"))
        code = main(["verify", "--dims", dims, "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: --dims entry {entry} out of range: dimensions are 2 to {MAX_DIM}\n"
        )

    @pytest.mark.parametrize("seed", ["-1", "-12"])
    def test_negative_seed_names_the_flag_and_value(self, capsys, seed):
        code = main(["verify", "--seed", seed, "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --seed must be non-negative, got {seed}\n"

    @pytest.mark.parametrize("dims,entry", [("2,2", 2), ("3,4,8,4", 4), ("2,3,2,3", 2)])
    def test_repeated_dims_entry_rejected_before_drawing(self, capsys, monkeypatch, dims, entry):
        # a repeat would check the same keyed trials twice and count them twice
        monkeypatch.setattr(properties, "run_all", lambda **_: pytest.fail("suites ran"))
        code = main(["verify", "--dims", dims, "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--dims entry {entry} is repeated" in captured.err

    def test_dims_at_the_limit_reach_the_suites(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(properties, "run_all", lambda **kw: seen.append(kw["dims"]) or [])
        assert main(["verify", "--dims", f"2,{MAX_DIM}", "--trials", "1"]) == 0
        assert seen == [(2, MAX_DIM)]

    def test_deterministic_payload(self, capsys):
        _, first = run_cli(capsys, "verify", "--trials", "10", "--seed", "3")
        _, second = run_cli(capsys, "verify", "--trials", "10", "--seed", "3")
        assert first == second


class TestTeleport:
    def test_identity_circuit_file(self, capsys):
        code, report = run_json(
            capsys, "teleport", "--circuit", f"{CONFIGS}/teleport_identity.json"
        )
        assert code == 0
        assert report["agreement"] is True
        assert report["timeflow"]["probability"] == pytest.approx(0.25, abs=1e-12)
        for rep in report["outcomes"].values():
            assert rep["probability"] == pytest.approx(0.25, abs=1e-10)
        assert [t["label"] for t in report["trace"]] == [
            "outbound",
            "first_reversal",
            "second_reversal",
            "return_leg",
            "closed_form",
        ]

    def test_random_circuit_agrees(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        can = np.zeros(4, dtype=complex)
        can[::3] = 1 / np.sqrt(2)

        def maxent():
            return vector_pairs(
                np.kron(random_unitary(2, rng), random_unitary(2, rng)) @ can
            )

        def gate():
            return [
                [float(z.real), float(z.imag)]
                for z in random_unitary(2, rng).reshape(-1)
            ]

        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        obj = {
            "d": 2,
            "u": gate(),
            "v": gate(),
            "w": gate(),
            "phi": maxent(),
            "omega": maxent(),
            "psi": vector_pairs(psi),
        }
        path = tmp_path / "random42.json"
        path.write_text(json.dumps(obj))
        code, report = run_json(
            capsys, "teleport", "--circuit", str(path), "--seed", "42"
        )
        assert code == 0
        assert report["agreement"] is True

    def test_alpha_phase_sweep(self, capsys):
        for phase in ("0", "pi/4", "pi", "-pi/3"):
            code, report = run_json(
                capsys,
                "teleport",
                "--circuit",
                f"{CONFIGS}/teleport_identity.json",
                f"--alpha-phase={phase}",
            )
            assert code == 0
            assert report["agreement"] is True

    def test_nonmax_pair_routed_to_loss_report(self, capsys):
        code, report = run_json(
            capsys, "teleport", "--circuit", f"{CONFIGS}/teleport_nonmax.json"
        )
        assert code == 0
        sv = report["nonmax"]["singular_values"]
        expected = sorted(
            [np.sqrt(2) * np.cos(np.pi / 6), np.sqrt(2) * np.sin(np.pi / 6)],
            reverse=True,
        )
        assert sv == pytest.approx(expected, abs=1e-10)
        assert "outcomes" not in report

    @pytest.mark.parametrize("encoding", ["spin", "photon"])
    def test_pair_within_input_tolerance_is_evaluated(self, capsys, tmp_path, encoding):
        # PHI+ scaled by 1 + 2e-9: a transfer-matrix residual of 4e-9, inside
        # INPUT_TOL, so the pair is maximally entangled for every check
        amp = (1 + 2e-9) / np.sqrt(2)
        obj = {
            "d": 2,
            "u": "I",
            "v": "I",
            "w": "I",
            "phi": [[amp, 0.0], [0.0, 0.0], [0.0, 0.0], [amp, 0.0]],
            "omega": "PHI+",
            "psi": 0,
        }
        path = tmp_path / "near_phi_plus.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli(
            capsys, "teleport", "--circuit", str(path), "--encoding", encoding
        )
        assert code == 0
        report = json.loads(out)
        assert report["agreement"] is True
        assert "nonmax" not in report

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "teleport", "--circuit", "no-such-file.json")
        assert code == 2

    @pytest.mark.parametrize(
        "field,value",
        [
            ("d", None),
            ("d", [2]),
            ("d", 2.7),
            ("d", True),
            ("u", {"a": 1}),
            ("phi", None),
            ("psi", True),
            ("psi", [[1, 0], "x"]),
        ],
    )
    def test_bad_field_type_is_input_error(self, capsys, tmp_path, field, value):
        obj = json.loads((CONFIGS / "teleport_identity.json").read_text())
        obj[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main(["teleport", "--circuit", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"field '{field}'" in captured.err

    @pytest.mark.parametrize("d", [MAX_DIM + 1, 10**6])
    def test_oversized_d_is_input_error(self, capsys, tmp_path, d):
        # rejected before any d x d array is built
        obj = {"d": d, "u": "I", "v": "I", "w": "I", "phi": "MAX", "omega": "MAX", "psi": 0}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        code = main(["teleport", "--circuit", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        message = f"circuit file: field 'd' {d} out of range: dimensions are 2 to {MAX_DIM}"
        assert message in captured.err

    def test_chain_evaluated_once_per_run(self, capsys, monkeypatch):
        calls = []
        chain = circuits._evolution_chain

        def counting(*args):
            calls.append(args)
            return chain(*args)

        monkeypatch.setattr(circuits, "_evolution_chain", counting)
        code, report = run_json(
            capsys, "teleport", "--circuit", f"{CONFIGS}/teleport_identity.json"
        )
        assert code == 0
        assert len(calls) == 1
        assert report["timeflow"]["raw"] == report["trace"][-1]["vector"]


class TestAcausal:
    def test_branches(self, capsys):
        code, report = run_json(capsys, "acausal")
        assert code == 0
        b0 = report["branches"]["0"]
        b1 = report["branches"]["1"]
        assert b0["probability"] == pytest.approx(0.25, abs=1e-10)
        assert b1["probability"] == pytest.approx(0.25, abs=1e-10)
        assert np.allclose(
            b0["state"], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], atol=1e-10
        )
        assert np.allclose(
            b1["state"], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], atol=1e-10
        )

    def test_result_independent_of_seed(self, capsys):
        _, r1 = run_json(capsys, "acausal", "--seed", "1")
        _, r2 = run_json(capsys, "acausal", "--seed", "999")
        assert r1["branches"] == r2["branches"]


class TestNmr:
    def test_flip_off_decomposition(self, capsys):
        code, report = run_json(
            capsys,
            "nmr",
            "--spin-system",
            f"{CONFIGS}/fourspin.spinsys",
            "--sequence",
            f"{CONFIGS}/flip_off.seq",
        )
        assert code == 0
        assert set(report["decomposition"]) == {"XXIZ"}
        assert report["decomposition"]["XXIZ"] == pytest.approx(0.25, abs=1e-12)

    def test_flip_on_decomposition(self, capsys):
        code, report = run_json(
            capsys,
            "nmr",
            "--spin-system",
            f"{CONFIGS}/fourspin.spinsys",
            "--sequence",
            f"{CONFIGS}/flip_on.seq",
        )
        assert code == 0
        assert set(report["decomposition"]) == {"YIZI"}

    def test_empty_sequence_returns_initial_terms(self, capsys, tmp_path):
        path = tmp_path / "empty.seq"
        path.write_text("# nothing\n")
        code, report = run_json(
            capsys,
            "nmr",
            "--spin-system",
            f"{CONFIGS}/fourspin.spinsys",
            "--sequence",
            str(path),
        )
        assert code == 0
        assert set(report["decomposition"]) == {"XIIX", "XZIX", "XIZX", "XZZX"}

    def test_spectrum_csv_written(self, capsys, tmp_path):
        # (spin system, sequence, initial label, detected spin, points, duration)
        cases = [
            (CONFIGS / "fourspin.spinsys", CONFIGS / "flip_off.seq", "X00X", 1, 256, 1.0),
            (CONFIGS / "fourspin.spinsys", CONFIGS / "flip_on.seq", "X00X", 1, 256, 1.0),
            (GOLDEN / "gen6.spinsys", GOLDEN / "gen6.seq", "XZ0Y1I", 3, 777, 0.5),
        ]
        for k, (spinsys, seq, initial, detect, points, duration) in enumerate(cases):
            spec_path = tmp_path / f"spec{k}.csv"
            fid_path = tmp_path / f"fid{k}.csv"
            code, report = run_json(
                capsys,
                "nmr",
                "--spin-system",
                str(spinsys),
                "--sequence",
                str(seq),
                "--initial",
                initial,
                "--detect",
                str(detect),
                "--duration",
                str(duration),
                "--points",
                str(points),
                "--spectrum-out",
                str(spec_path),
                "--fid-out",
                str(fid_path),
            )
            assert code == 0
            assert report["spectrum_file"] == str(spec_path)
            assert report["fid_file"] == str(fid_path)
            lines = spec_path.read_text().splitlines()
            assert lines[0] == "frequency_hz,real,imaginary"
            assert len(lines) == points + 1
            assert fid_path.read_text().splitlines()[0] == "time_s,real,imaginary"

            # Byte for byte what a row-by-row csv.writer writes for the same arrays.
            system = load_spin_system(spinsys)
            rho = run_sequence(system, initial, load_sequence(seq, system))
            signal = fid(system, rho, detect - 1, duration, points)
            write_fid_csv(tmp_path / "fid-ref.csv", signal, duration, points)
            write_spectrum_csv(tmp_path / "spec-ref.csv", spectrum(signal, duration / points, 1.0))
            assert fid_path.read_bytes() == (tmp_path / "fid-ref.csv").read_bytes()
            assert spec_path.read_bytes() == (tmp_path / "spec-ref.csv").read_bytes()

    @pytest.mark.parametrize("detect", ["0", "9"])
    def test_detect_out_of_range(self, capsys, detect):
        code = main(
            ["nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys", "--sequence",
             f"{CONFIGS}/flip_off.seq", "--detect", detect, "--duration", "1.0", "--points", "64"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--detect: spin {detect} out of range: spins are 1 to 4" in captured.err

    @pytest.mark.parametrize(
        "label,message",
        [
            ("X00", "--initial: label 'X00' must have length 4"),
            ("X0-X", "--initial: invalid symbol '-'; allowed: I X Y Z 0 1"),
        ],
    )
    def test_bad_initial_label_names_the_flag(self, capsys, label, message):
        code = main(
            ["nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys", "--sequence",
             f"{CONFIGS}/flip_off.seq", "--initial", label]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_detect_without_acquisition_params(self, capsys):
        code, _ = run_cli(
            capsys,
            "nmr",
            "--spin-system",
            f"{CONFIGS}/fourspin.spinsys",
            "--sequence",
            f"{CONFIGS}/flip_off.seq",
            "--detect",
            "1",
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--fid-out", "--spectrum-out", "--duration", "--points"])
    def test_acquisition_flag_without_detect(self, capsys, tmp_path, flag):
        value = str(tmp_path / "out.csv") if flag.endswith("-out") else "64"
        code = main(
            ["nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys", "--sequence",
             f"{CONFIGS}/flip_on.seq", flag, value]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{flag} requires --detect" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points", [MAX_POINTS + 1, 100_000_000])
    def test_oversized_points_rejected_before_reading_files(self, capsys, tmp_path, points):
        # the input files do not exist, so the limit must act before they are
        # read, and no state or FID is ever allocated
        fid_out = tmp_path / "fid.csv"
        code = main(
            ["nmr", "--spin-system", str(tmp_path / "missing.spinsys"),
             "--sequence", str(tmp_path / "missing.seq"), "--detect", "1",
             "--duration", "1.0", "--points", str(points), "--fid-out", str(fid_out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--points {points} exceeds the limit of {MAX_POINTS}" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_points_at_the_limit_accepted(self, capsys, tmp_path):
        code = main(
            ["nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys", "--sequence",
             f"{CONFIGS}/flip_on.seq", "--detect", "1", "--duration", "1.0",
             "--points", str(MAX_POINTS), "--out", str(tmp_path / "report.json")]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "exports,report",
        [
            # the exports can be written, the report cannot: they are removed
            (("fid.csv", "spectrum.csv"), "missing/report.json"),
            # the first export cannot be written: nothing after it is tried
            (("missing/fid.csv", "spectrum.csv"), "report.json"),
        ],
        ids=["report-fails", "first-export-fails"],
    )
    def test_failed_write_leaves_no_file(self, capsys, tmp_path, exports, report):
        fid_out, spectrum_out = (tmp_path / name for name in exports)
        code = main(
            ["nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys", "--sequence",
             f"{CONFIGS}/flip_off.seq", "--detect", "1", "--duration", "1", "--points", "64",
             "--fid-out", str(fid_out), "--spectrum-out", str(spectrum_out),
             "--out", str(tmp_path / report)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "No such file or directory" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "seq,message",
        [
            ("rotation 1 y nan\n", "line 1: angle 'nan' is not finite"),
            ("rotation 2 y pi/2\ndelay inf\n", "line 2: duration 'inf' is not finite"),
            (
                "# C9 does not exist\ndelay 0.1\nrotation 1,9 y pi/2\n",
                "line 3: spin 9 out of range: spins are 1 to 4",
            ),
            ("jcoupling 9 1 pi/2\n", "line 1: spin 9 out of range: spins are 1 to 4"),
            ("gradient 1,5\n", "line 1: spin 5 out of range: spins are 1 to 4"),
        ],
    )
    def test_bad_sequence_is_input_error_with_line(self, capsys, tmp_path, seq, message):
        path = tmp_path / "bad.seq"
        path.write_text(seq)
        code = main(
            ["nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys", "--sequence", str(path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("line", ["j 1 2 nan", "larmor 0.0 inf 1.0 2.0"])
    def test_non_finite_spin_system_is_input_error(self, capsys, tmp_path, line):
        path = tmp_path / "bad.spinsys"
        path.write_text(f"spins 4\nlarmor 0.0 1.0 2.0 3.0\n{line}\n")
        code = main(["nmr", "--spin-system", str(path), "--sequence", f"{CONFIGS}/flip_on.seq"])
        assert code == 2
        assert "spin-system file line 3" in capsys.readouterr().err

    def test_oversized_spin_count_is_input_error(self, capsys, tmp_path, monkeypatch):
        # the file claims only the count, and the engine must not be reached
        monkeypatch.setattr(
            "timeflow.cli._run_reduced", lambda *a, **k: pytest.fail("sequence ran")
        )
        path = tmp_path / "big.spinsys"
        path.write_text(f"spins 40\nlarmor {' '.join(['0'] * 40)}\n")
        code = main(["nmr", "--spin-system", str(path), "--sequence", f"{CONFIGS}/flip_on.seq"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: spin-system file line 1: spin count 40 exceeds the limit of {MAX_SPINS}\n"
        )

    def test_uncoupled_pair_names_the_line_and_the_file_spins(self, capsys, tmp_path):
        system = tmp_path / "chain.spinsys"
        system.write_text("spins 4\nlarmor 0 1 2 3\nj 1 2 40\nj 2 3 65\nj 3 4 70\n")
        seq = tmp_path / "uncoupled.seq"
        seq.write_text("# C1 and C4 share no J\nrotation 1 y pi/2\njcoupling 1 4 pi/2\n")
        code = main(["nmr", "--spin-system", str(system), "--sequence", str(seq)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: sequence file line 3: spins 1 and 4 have no J coupling\n"

    def test_parse_error_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.seq"
        path.write_text("rotation 1 q pi/2\n")
        code, _ = run_cli(
            capsys,
            "nmr",
            "--spin-system",
            f"{CONFIGS}/fourspin.spinsys",
            "--sequence",
            str(path),
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--tol", "nan"],
        ["teleport", "--circuit", "c", "--tol", "inf"],
        ["nmr", "--spin-system", "s", "--sequence", "q", "--duration", "nan"],
        ["nmr", "--spin-system", "s", "--sequence", "q", "--broadening=-inf"],
    ],
)
def test_non_finite_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid finite_float value" in capsys.readouterr().err


def test_negative_broadening_is_input_error(capsys, tmp_path):
    spectrum_path = tmp_path / "spectrum.csv"
    code = main([
        "nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys",
        "--sequence", f"{CONFIGS}/flip_on.seq", "--detect", "1", "--points", "8",
        "--duration", "1", "--broadening=-1e4", "--spectrum-out", str(spectrum_path),
    ])
    assert code == 2
    assert "line broadening must be non-negative" in capsys.readouterr().err
    assert not spectrum_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--trials", "1"],
        ["teleport", "--circuit", f"{CONFIGS}/teleport_identity.json"],
    ],
)
@pytest.mark.parametrize("tol", ["-1", "-1e-300"])
def test_negative_tolerance_is_input_error(capsys, argv, tol):
    code = main([*argv, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--tol must be non-negative, got {float(tol)}" in captured.err


def test_zero_tolerance_accepted(capsys):
    code, report = run_json(
        capsys, "teleport", "--circuit", f"{CONFIGS}/teleport_identity.json", "--tol", "0"
    )
    assert code in (0, 1)  # a verdict at zero tolerance, not an input error
    assert report["config"]["tolerance"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["acausal"],
        ["nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys",
         "--sequence", f"{CONFIGS}/flip_on.seq"],
    ],
    ids=["acausal", "nmr"],
)
def test_commands_that_compare_nothing_take_no_tolerance(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 0 and "tolerance" not in report["config"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


def test_overflowing_broadening_is_input_error(capsys, tmp_path):
    spectrum_path = tmp_path / "spectrum.csv"
    code = main([
        "nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys",
        "--sequence", f"{CONFIGS}/flip_on.seq", "--detect", "1", "--points", "8",
        "--duration", "1", "--broadening", "1e308", "--spectrum-out", str(spectrum_path),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line broadening 1e+308 Hz overflows the apodization decay" in captured.err
    assert not spectrum_path.exists()


def test_duration_whose_frequency_grid_overflows_is_input_error(capsys, tmp_path):
    # a dwell of 1.5625e-312 s: 1 / (64 * dwell) is past the largest double
    spectrum_path = tmp_path / "spectrum.csv"
    code = main([
        "nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys",
        "--sequence", f"{CONFIGS}/flip_on.seq", "--detect", "1", "--points", "64",
        "--duration", "1e-310", "--spectrum-out", str(spectrum_path),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "dwell 1.5625e-312 s at 64 points overflows" in captured.err
    assert not spectrum_path.exists()


def test_cli_imports_without_scipy():
    code = "import sys; sys.modules['scipy'] = None; import timeflow.cli"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_parser_shared_across_calls(capsys, tmp_path):
    """Guards the module-level parser that every ``main`` call reuses: no
    option, default or error may carry from one call into the next."""
    identity = f"{CONFIGS}/teleport_identity.json"
    nmr = ["nmr", "--spin-system", f"{CONFIGS}/fourspin.spinsys",
           "--sequence", f"{CONFIGS}/flip_on.seq"]
    _, lone_spin = run_json(capsys, "teleport", "--circuit", identity)
    _, lone_nmr = run_json(capsys, *nmr)

    _, photon = run_json(capsys, "teleport", "--circuit", identity, "--encoding", "photon")
    assert photon["config"]["encoding"] == "photon-number"
    _, spin = run_json(capsys, "teleport", "--circuit", identity)
    assert spin == lone_spin

    with pytest.raises(SystemExit) as exc:
        main(["teleport"])
    assert exc.value.code == 2
    assert "--circuit" in capsys.readouterr().err
    _, after_error = run_json(capsys, "teleport", "--circuit", identity)
    assert after_error == lone_spin

    code, acquired = run_json(
        capsys, *nmr, "--detect", "1", "--duration", "1.0", "--points", "64",
        "--fid-out", str(tmp_path / "fid.csv"),
    )
    assert code == 0
    assert "fid_file" in acquired
    code, plain = run_json(capsys, *nmr)
    assert code == 0
    assert "fid_file" not in plain
    assert plain == lone_nmr


class TestCsvFormat:
    def test_verify_csv(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--trials", "5", "--format", "csv"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "property,trials,max_deviation,tolerance,passed"
        assert len(lines) == 12
        assert "# seed=1234" in out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nmr_outputs_list_the_decomposition(self, capsys, fmt):
        # The CSV rows are built only for --format csv; both formats still
        # carry every term, the JSON report as a dict and the CSV one a row each.
        argv = ["nmr", "--spin-system", f"{GOLDEN}/gen5.spinsys",
                "--sequence", f"{GOLDEN}/gen5.seq", "--initial", "X0Y1Z"]
        system = load_spin_system(GOLDEN / "gen5.spinsys")
        rho = run_sequence(system, "X0Y1Z", load_sequence(GOLDEN / "gen5.seq", system))
        terms = pauli_decompose(rho, tol=INPUT_TOL)
        code, out = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["decomposition"] == dict(terms)
        else:
            lines = [l for l in out.splitlines() if not l.startswith("#")]
            assert lines == ["term,coefficient"] + [f"{t},{c!r}" for t, c in terms]


class TestReportBytes:
    """The JSON writer against ``json.dumps(report, indent=2, sort_keys=True)``."""

    @pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("nmr-")))
    def test_golden_nmr_reports_match_the_indent_oracle(self, tmp_path, monkeypatch, case):
        written = []

        def spy(report, *rest):
            written.append(report)
            emit(report, *rest)

        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", spy)
        code, _ = run_case(CASES[case], tmp_path)
        assert code == 0 and len(written) == 1 and written[0]["decomposition"]
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert text == indented_json(written[0])

    @settings(max_examples=300, deadline=None)
    @given(report=nmr_reports())
    def test_report_text_matches_the_indent_oracle(self, report):
        assert cli._json_text(report) == indented_json(report)

    def test_empty_decomposition_keeps_the_indent_layout(self):
        report = {"command": "nmr", "config": {"seed": 1}, "decomposition": {}}
        assert cli._json_text(report) == indented_json(report)

    @pytest.mark.parametrize("case", sorted(c for c in CASES if not c.startswith("nmr-")))
    def test_other_golden_reports_match_the_indent_oracle(self, tmp_path, case):
        # verify rows, teleport outcomes and traces, the nonmax and acausal
        # objects: a parsed report written again by the oracle gives its bytes
        run_case(CASES[case], tmp_path)
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert text == indented_json(json.loads(text))

    @settings(max_examples=100, deadline=None)
    @given(report=json_reports())
    def test_any_report_shape_matches_the_indent_oracle(self, report):
        assert cli._json_text(report) == indented_json(report)
