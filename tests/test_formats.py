import json
import re

import numpy as np
import pytest

from timeflow.formats import (
    load_circuit,
    parse_angle,
    parse_circuit,
    parse_entangled_state,
    parse_gate,
    parse_sequence,
    parse_spin_system,
    vector_pairs,
)
from timeflow.linalg import HADAMARD, SX, bell_state, ry
from timeflow.nmr import Delay, Gradient, JCoupling, Rotation

SPINSYS = """
# four spins
spins 4
larmor 0.0 1500.0 -2500.0 4000.0
j 1 2 40.0
j 2 3 65.0
j 3 4 70.0
"""

SEQUENCE = """
rotation 2 y pi/2
rotation 2,3 y pi/2   # same pulse on two spins
jcoupling 1 2 pi/2
delay 0.005
gradient 3,4
rotation 4 -y 3pi/4
"""


class TestAngles:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("0.5", 0.5),
            ("-1.25e-3", -1.25e-3),
            ("pi", np.pi),
            ("-pi", -np.pi),
            ("pi/2", np.pi / 2),
            ("-pi/2", -np.pi / 2),
            ("3pi/4", 3 * np.pi / 4),
            ("0.5pi", np.pi / 2),
            ("2pi", 2 * np.pi),
        ],
    )
    def test_accepted_forms(self, token, value):
        assert parse_angle(token) == pytest.approx(value, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("two pi")

    @pytest.mark.parametrize(
        "token",
        ["nan", "inf", "-inf", "1e999", "pi/0", pytest.param("9" * 400 + "pi", id="huge-pi")],
    )
    def test_rejects_non_finite(self, token):
        with pytest.raises(ValueError, match="not finite"):
            parse_angle(token)


class TestSpinSystemFile:
    def test_parse(self):
        s = parse_spin_system(SPINSYS)
        assert s.n == 4
        assert s.larmor == (0.0, 1500.0, -2500.0, 4000.0)
        assert s.j[0, 1] == 40.0
        assert s.j[1, 0] == 40.0
        assert s.j[0, 3] == 0.0

    def test_missing_spins_line(self):
        with pytest.raises(ValueError, match="spins"):
            parse_spin_system("larmor 1.0\n")

    def test_wrong_larmor_count(self):
        with pytest.raises(ValueError, match="larmor"):
            parse_spin_system("spins 2\nlarmor 1.0\n")

    def test_bad_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_spin_system("spins 2\nlarmor 0.0 1.0\nj 1 oops 4\n")

    def test_coupling_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_spin_system("spins 2\nlarmor 0.0 1.0\nj 1 5 4.0\n")

    @pytest.mark.parametrize(
        "line", ["larmor 0.0 nan", "larmor inf 1.0", "j 1 2 nan", "j 1 2 -inf"]
    )
    def test_non_finite_value_reports_line(self, line):
        with pytest.raises(ValueError, match="line 3: .*not finite"):
            parse_spin_system(f"spins 2\nlarmor 0.0 1.0\n{line}\n")

    def test_self_coupling_reports_line(self):
        with pytest.raises(ValueError, match="line 3: self-coupling of spin 1"):
            parse_spin_system("spins 2\nlarmor 0.0 1.0\nj 1 1 5\n")

    def test_coupling_out_of_range_reports_line_and_spin(self):
        # the j line comes before the spins line, which it is checked against
        with pytest.raises(ValueError, match="line 1: coupling spin 3 out of range"):
            parse_spin_system("j 1 3 5\nspins 2\nlarmor 0.0 1.0\n")

    @pytest.mark.parametrize("second", ["j 1 2 7", "j 2 1 7"])
    def test_repeated_pair_names_both_lines(self, second):
        message = "line 4: coupling of spins [12] and [12] repeats line 3"
        with pytest.raises(ValueError, match=message):
            parse_spin_system(f"spins 2\nlarmor 0.0 1.0\nj 1 2 5\n{second}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("spins 2\nlarmor 1 2\nlarmor 5 6\nspins 2\n", "line 3: 'larmor' repeats line 2"),
            ("spins 2\nlarmor 1 2\nj 1 2 5\nSPINS 2\n", "line 4: 'spins' repeats line 1"),
        ],
    )
    def test_repeated_key_names_both_lines(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_spin_system(text)

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_spin_count_below_one_reports_line(self, count):
        with pytest.raises(ValueError, match="line 2: need at least 1 spin"):
            parse_spin_system(f"# header\nspins {count}\nlarmor\n")


class TestSequenceFile:
    def test_parse(self):
        events = parse_sequence(SEQUENCE)
        assert events[0] == Rotation((1,), "y", pytest.approx(np.pi / 2))
        assert events[1] == Rotation((1, 2), "y", pytest.approx(np.pi / 2))
        assert events[2] == JCoupling((0, 1), pytest.approx(np.pi / 2))
        assert events[3] == Delay(0.005)
        assert events[4] == Gradient((2, 3))
        assert events[5].axis == "-y"

    def test_unknown_kind_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_sequence("wiggle 1 x pi\n")

    def test_zero_based_spin_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            parse_sequence("rotation 0 y pi/2\n")

    @pytest.mark.parametrize(
        "line", ["rotation 1 y nan", "jcoupling 1 2 inf", "delay inf", "delay nan"]
    )
    def test_non_finite_value_reports_line(self, line):
        with pytest.raises(ValueError, match="line 2: .*not finite"):
            parse_sequence(f"# header\n{line}\n")

    def test_zero_coupling_spin_reports_line(self):
        with pytest.raises(ValueError, match="line 1: spin numbers are 1-based"):
            parse_sequence("jcoupling 0 1 pi/2\n")

    @pytest.mark.parametrize("axis", ["--x", "+-y", "xy", "-"])
    def test_axis_takes_at_most_one_sign(self, axis):
        with pytest.raises(ValueError, match=re.escape(f"line 2: invalid axis '{axis}'")):
            parse_sequence(f"delay 0.1\nrotation 1 {axis} pi/2\n")

    def test_self_coupling_reports_line(self):
        with pytest.raises(ValueError, match="line 1: jcoupling needs two distinct spins"):
            parse_sequence("jcoupling 2 2 pi/2\n")


class TestCircuitFile:
    def test_named_gates(self):
        assert np.allclose(parse_gate("H", 2, "u"), HADAMARD, atol=1e-15)
        assert np.allclose(parse_gate("RY(pi/3)", 2, "u"), ry(np.pi / 3), atol=1e-15)
        assert np.allclose(parse_gate("I", 3, "u"), np.eye(3), atol=1e-15)

    def test_named_gate_needs_d2(self):
        with pytest.raises(ValueError, match="d = 2"):
            parse_gate("X", 3, "u")

    def test_matrix_gate(self):
        pairs = [[0, 0], [1, 0], [1, 0], [0, 0]]
        assert np.allclose(parse_gate(pairs, 2, "u"), SX, atol=1e-15)

    def test_matrix_wrong_length(self):
        with pytest.raises(ValueError, match="'u'"):
            parse_gate([[1, 0]], 2, "u")

    def test_entangled_state_names(self):
        assert np.allclose(
            parse_entangled_state("PSI-", 2, "phi"), bell_state("PSI-"), atol=1e-15
        )
        v = parse_entangled_state("MAX", 3, "phi")
        assert np.allclose(v[np.array([0, 4, 8])], 1 / np.sqrt(3), atol=1e-15)

    def test_full_circuit(self):
        obj = {
            "d": 2,
            "u": "H",
            "v": "I",
            "w": "RZ(pi/4)",
            "phi": "PHI+",
            "omega": "PSI+",
            "psi": [[1.0, 0.0], [0.0, 0.0]],
        }
        spec = parse_circuit(obj)
        assert spec["d"] == 2
        assert np.allclose(spec["psi"], [1, 0], atol=1e-15)

    def test_basis_index_input(self):
        obj = {
            "d": 3,
            "u": "I",
            "v": "I",
            "w": "I",
            "phi": "MAX",
            "omega": "MAX",
            "psi": 2,
        }
        spec = parse_circuit(obj)
        assert np.allclose(spec["psi"], [0, 0, 1], atol=1e-15)

    @pytest.mark.parametrize("d", [2.7, 2.0, "2", None, [2], True])
    def test_d_must_be_an_integer(self, d):
        obj = {"d": d, "u": "I", "v": "I", "w": "I", "phi": "MAX", "omega": "MAX", "psi": 0}
        with pytest.raises(ValueError, match="field 'd' must be an integer"):
            parse_circuit(obj)

    @pytest.mark.parametrize("psi", [True, False])
    def test_boolean_psi_is_not_a_basis_index(self, psi):
        obj = {"d": 2, "u": "I", "v": "I", "w": "I", "phi": "MAX", "omega": "MAX", "psi": psi}
        with pytest.raises(ValueError, match="field 'psi': expected 2 \\[re, im\\] pairs"):
            parse_circuit(obj)

    @pytest.mark.parametrize("psi", [-1, 3])
    def test_basis_index_out_of_range_names_field(self, psi):
        obj = {"d": 3, "u": "I", "v": "I", "w": "I", "phi": "MAX", "omega": "MAX", "psi": psi}
        with pytest.raises(ValueError, match=f"field 'psi': basis index {psi} not in 0..2"):
            parse_circuit(obj)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": 1},
            None,
            7,
            [[1, 0], [0]],
            [[1, 0], [[0], [1]]],
            [["1", "0"]] * 4,
            [[True, False]] * 4,
            [[True, 0], [0, 0], [0, 0], [1, 0]],
        ],
    )
    def test_malformed_gate_names_field(self, value):
        with pytest.raises(ValueError, match="field 'u': expected 4 \\[re, im\\] pairs"):
            parse_gate(value, 2, "u")

    def test_integer_beyond_float_range_is_not_finite(self):
        with pytest.raises(ValueError, match="field 'u': numbers must be finite"):
            parse_gate([[10**400, 0]] * 4, 2, "u")

    def test_missing_field(self):
        with pytest.raises(ValueError, match="'omega'"):
            parse_circuit({"d": 2, "u": "I", "v": "I", "w": "I", "phi": "PHI+", "psi": 0})

    def test_unnormalized_psi(self):
        obj = {
            "d": 2,
            "u": "I",
            "v": "I",
            "w": "I",
            "phi": "PHI+",
            "omega": "PHI+",
            "psi": [[2.0, 0.0], [0.0, 0.0]],
        }
        with pytest.raises(ValueError, match="normalized"):
            parse_circuit(obj)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_amplitude_rejected(self, bad):
        obj = {
            "d": 2,
            "u": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [bad, 0.0]],
            "v": "I",
            "w": "I",
            "phi": "PHI+",
            "omega": "PHI+",
            "psi": [[bad, 0.0], [0.0, 0.0]],
        }
        with pytest.raises(ValueError, match="finite"):
            parse_circuit(obj)
        obj["u"] = "I"
        with pytest.raises(ValueError, match="'psi': numbers must be finite"):
            parse_circuit(obj)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_circuit(path)


def test_vector_pairs_roundtrip():
    v = np.array([1 + 2j, -0.5j])
    pairs = vector_pairs(v)
    assert pairs == [[1.0, 2.0], [0.0, -0.5]]
    assert json.loads(json.dumps(pairs)) == pairs
