"""Property tests for the three parsers.

Every input either parses to finite, validated objects or raises
``ValueError`` (which the CLI maps to exit 2); no other exception may escape.
Each strategy builds a valid input and, half the time, corrupts one token or
field of it, so that both outcomes are common.  A sequence file with one
faulty line must make ``timeflow nmr`` exit 2 with that line's number.
"""

import io
import math
import re
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from timeflow.cli import main
from timeflow.formats import parse_circuit, parse_sequence, parse_spin_system
from timeflow.linalg import INPUT_TOL
from timeflow.nmr import Delay, Gradient, JCoupling, Rotation, SpinSystem

PARSERS = settings(max_examples=60, deadline=None)

FINITE = st.integers(-5000, 5000).map(str) | st.floats(-1e4, 1e4).map(repr)
ANGLES = FINITE | st.sampled_from(["pi", "-pi", "pi/2", "3pi/4", "0.5pi", "-3pi/2"])
# Every pair coupled, so that any two distinct spins of 1 to 4 may couple.
FOUR_COUPLED = SpinSystem.from_couplings(
    [0.0, 100.0, 200.0, 300.0], {(a, b): 10.0 for a in range(4) for b in range(a)}
)
SPINLISTS = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
    lambda v: ",".join(map(str, v))
)
BAD_TOKENS = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "0", "-1", "1.5", "pi/0", "--x", "+-y", "1,,2", "", "#"]
) | st.text(alphabet="0123456789.,-+epixyz/", max_size=5)


@st.composite
def _corrupted(draw, lines):
    """The lines, joined; half the time one token is replaced or appended."""
    lines = list(lines)
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split()
        i = draw(st.integers(0, len(fields)))
        fields[i : i + 1] = [draw(BAD_TOKENS)]
        lines[k] = " ".join(fields)
    return "\n".join(lines)


def _spin_system_lines(n):
    spins = st.integers(1, n).map(str)
    return st.tuples(
        st.lists(FINITE, min_size=n, max_size=n).map(" ".join),
        st.lists(st.tuples(spins, spins, FINITE).map(" ".join), max_size=3),
    ).map(lambda t: [f"spins {n}", f"larmor {t[0]}", *(f"j {c}" for c in t[1])])


SPIN_SYSTEM_LINES = {n: _spin_system_lines(n) for n in range(1, 5)}


@st.composite
def spin_system_files(draw):
    lines = draw(SPIN_SYSTEM_LINES[draw(st.integers(1, 4))])
    return draw(_corrupted(draw(st.permutations(lines))))


EVENTS = st.one_of(
    st.tuples(SPINLISTS, st.sampled_from(["x", "Y", "+z", "-x", "-y"]), ANGLES).map(
        lambda t: "rotation " + " ".join(t)
    ),
    st.tuples(st.integers(1, 4), st.integers(1, 4), ANGLES).map(
        lambda t: "jcoupling {} {} {}".format(*t)
    ),
    FINITE.map("delay {}".format),
    SPINLISTS.map("gradient {}".format),
    st.just("# comment"),
)


def _parsed(parse, arg):
    try:
        return parse(arg)
    except ValueError:
        return None


@PARSERS
@given(spin_system_files())
def test_spin_system_parser_validates_or_raises_value_error(text):
    system = _parsed(parse_spin_system, text)
    if system is None:
        return
    assert isinstance(system, SpinSystem) and system.n >= 1
    assert all(math.isfinite(v) for v in system.larmor)
    assert np.all(np.isfinite(system.j))
    assert np.array_equal(system.j, system.j.T) and not np.any(np.diag(system.j))


@PARSERS
@given(st.lists(EVENTS, max_size=5).flatmap(_corrupted))
def test_sequence_parser_validates_or_raises_value_error(text):
    events = _parsed(lambda t: parse_sequence(t, FOUR_COUPLED), text)
    if events is None:
        return
    for ev in events:
        if isinstance(ev, Rotation):
            assert ev.axis in ("x", "y", "z", "+x", "+y", "+z", "-x", "-y", "-z")
            assert math.isfinite(ev.angle)
        elif isinstance(ev, JCoupling):
            assert len(ev.pair) == 2 and ev.pair[0] != ev.pair[1]
            assert math.isfinite(ev.angle)
        elif isinstance(ev, Delay):
            assert math.isfinite(ev.duration)
        else:
            assert isinstance(ev, Gradient)
        assert all(0 <= s < 4 for s in getattr(ev, "spins", getattr(ev, "pair", ())))


@st.composite
def faulty_sequence_files(draw):
    """``(spin_system_text, sequence_text, line, numbers)``: a spin system
    of 2 to 5 spins and a sequence file valid for it, with comment and blank
    lines, but for one event line replaced by a faulty one.  ``line`` is the
    faulty line's 1-based number, and ``numbers`` are the spin numbers, as
    the file writes them, that its error message must name."""
    n = draw(st.integers(2, 5))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    uncoupled = draw(st.sampled_from(pairs))
    coupled = [p for p in pairs if p != uncoupled and draw(st.booleans())]
    spins = st.integers(1, n)
    spinlists = st.lists(spins, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v)))
    valid = [
        st.tuples(spinlists, st.sampled_from(["x", "-y", "Z", "+z"])).map(
            lambda t: f"rotation {t[0]} {t[1]} pi/2"
        ),
        st.just("delay 0.001"),
        spinlists.map("gradient {}".format),
        st.sampled_from(["# a comment", "", "   # indented"]),
    ]
    if coupled:
        valid.append(st.sampled_from(coupled).map("jcoupling {0[1]} {0[0]} -pi/4".format))
    lines = draw(st.lists(st.one_of(valid), max_size=6))
    a, b = draw(st.permutations(uncoupled))
    spin = draw(spins)
    bad = draw(st.sampled_from([0, -1, n + 1, n + 7]))
    faults = [
        (f"rotation {spin},{bad} y pi/2", [bad, 1, n]),
        (f"gradient {bad}", [bad, 1, n]),
        (f"jcoupling {spin} {bad} pi/2", [bad, 1, n]),
        (f"jcoupling {a} {b} pi/2", [a, b]),
        (f"rotation {spin} {draw(st.sampled_from(['w', '--x', '+-y', 'xy']))} pi", []),
        (f"jcoupling {spin} {spin} pi/2", []),
        ("gradient", []),
    ]
    fault, numbers = draw(st.sampled_from(faults))
    k = draw(st.integers(0, len(lines)))
    lines.insert(k, fault)
    system = [f"spins {n}", "larmor " + " ".join(str(100.0 * i) for i in range(n))]
    system += [f"j {i} {j} 12.5" for i, j in coupled]
    return "\n".join(system) + "\n", "\n".join(lines) + "\n", k + 1, numbers


@settings(max_examples=60, deadline=None)
@given(faulty_sequence_files())
def test_nmr_names_the_faulty_sequence_line(case):
    spin_system, sequence, line, numbers = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err):
        paths = Path(tmp, "s.spinsys"), Path(tmp, "s.seq")
        paths[0].write_text(spin_system)
        paths[1].write_text(sequence)
        code = main(["nmr", "--spin-system", str(paths[0]), "--sequence", str(paths[1]),
                     "--out", str(Path(tmp, "report.json"))])
    message = err.getvalue()
    assert code == 2
    assert message.startswith(f"error: sequence file line {line}: ")
    # the line number, then only the file's own spin numbers
    assert [int(v) for v in re.findall(r"-?\d+", message)] == [line, *numbers]


def _pairs(length, entries=st.floats(-2, 2) | st.integers(-1, 1)):
    return st.lists(st.tuples(entries, entries).map(list), min_size=length, max_size=length)


def _valid_fields(d):
    """Every field of a well-formed circuit object of dimension ``d``."""
    gate_names = ["I", "X", "h", "RX(pi/2)", "rz(-pi/4)"] if d == 2 else ["I"]
    state_names = ["MAX", "PHI+", "psi-"] if d == 2 else ["MAX"]
    gates = st.sampled_from(gate_names) | _pairs(d * d)
    states = st.sampled_from(state_names) | _pairs(d * d)
    unit = [[0.6, 0.0], [0.0, 0.8]] + [[0.0, 0.0]] * (d - 2)
    return st.fixed_dictionaries(
        {
            "d": st.just(d),
            **dict.fromkeys(("u", "v", "w"), gates),
            **dict.fromkeys(("phi", "omega"), states),
            "psi": st.integers(0, d - 1) | st.just(unit),
        }
    )


BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(),
    st.sampled_from(["RX(pi/0)", "Q", "BELL", "2"]),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.integers(1, 10).flatmap(_pairs),
    _pairs(4, st.sampled_from([math.nan, math.inf, True, "1", None])),
    st.lists(st.lists(st.integers(0, 1), max_size=3), min_size=4, max_size=4),
)


VALID_FIELDS = {2: _valid_fields(2), 3: _valid_fields(3)}


@st.composite
def circuit_objects(draw):
    obj = draw(VALID_FIELDS[draw(st.sampled_from([2, 3]))])
    if draw(st.booleans()):
        field = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            del obj[field]
        else:
            obj[field] = draw(BAD_VALUES)
    return obj


@PARSERS
@given(circuit_objects())
def test_circuit_parser_validates_or_raises_value_error(obj):
    spec = _parsed(parse_circuit, obj)
    if spec is None:
        return
    d = spec["d"]
    assert type(d) is int and d == obj["d"] and d >= 2
    shapes = {"u": (d, d), "v": (d, d), "w": (d, d), "phi": (d * d,), "omega": (d * d,)}
    for field, shape in {**shapes, "psi": (d,)}.items():
        assert spec[field].shape == shape and np.all(np.isfinite(spec[field]))
    assert abs(np.linalg.norm(spec["psi"]) - 1.0) <= INPUT_TOL
