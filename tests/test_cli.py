import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import timeflow.circuits as circuits
from timeflow.cli import main
from timeflow.formats import vector_pairs
from timeflow.linalg import random_unitary

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "teleport", "--circuit", "no-such-file.json")
        assert code == 2

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
        spec_path = tmp_path / "spec.csv"
        fid_path = tmp_path / "fid.csv"
        code, report = run_json(
            capsys,
            "nmr",
            "--spin-system",
            f"{CONFIGS}/fourspin.spinsys",
            "--sequence",
            f"{CONFIGS}/flip_off.seq",
            "--detect",
            "1",
            "--duration",
            "1.0",
            "--points",
            "256",
            "--spectrum-out",
            str(spec_path),
            "--fid-out",
            str(fid_path),
        )
        assert code == 0
        assert report["spectrum_file"] == str(spec_path)
        lines = spec_path.read_text().splitlines()
        assert lines[0] == "frequency_hz,real,imaginary"
        assert len(lines) == 257
        assert fid_path.read_text().splitlines()[0] == "time_s,real,imaginary"

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

    @pytest.mark.parametrize(
        "seq,message",
        [
            ("rotation 1 y nan\n", "line 1: angle 'nan' is not finite"),
            ("rotation 2 y pi/2\ndelay inf\n", "line 2: number 'inf' is not finite"),
            (
                "# C9 does not exist\ndelay 0.1\nrotation 1,9 y pi/2\n",
                "event 2 (rotation): spin 9 is out of range for a 4-spin system",
            ),
            ("jcoupling 9 1 pi/2\n", "event 1 (jcoupling): spin 9 is out of range"),
            ("gradient 1,5\n", "event 1 (gradient): spin 5 is out of range for a 4-spin system"),
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
        ["acausal", "--tol", "inf"],
        ["nmr", "--spin-system", "s", "--sequence", "q", "--duration", "nan"],
        ["nmr", "--spin-system", "s", "--sequence", "q", "--broadening=-inf"],
    ],
)
def test_non_finite_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid finite_float value" in capsys.readouterr().err


def test_cli_imports_without_scipy():
    code = "import sys; sys.modules['scipy'] = None; import timeflow.cli"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


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
