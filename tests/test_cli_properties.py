"""End-to-end property test of the command line, run in process.

Hypothesis builds command lines for all four subcommands from valid values,
the boundary values 0, 1, -1, 1e308 and nan, corrupted copies of the shipped
input files and combinations of flags.  Whatever it builds, ``cli.main``
returns 0, 1 or 2, or argparse exits with status 2; no other exception
escapes.  Exit 1 is a verification failure: a ``verify`` suite or a
``teleport`` comparison that disagrees.  A nan flag value never exits 0.
After exit 0 every requested file exists and is non-empty, and no output
holds a non-finite number; after exit 2 no output file exists.
"""

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from timeflow.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {p.name: p.read_text(encoding="utf-8") for p in sorted(CONFIGS.iterdir())}
BOUNDARIES = ["0", "1", "-1", "1e308", "nan"]
BAD_TOKENS = ["nan", "inf", "1e308", "-1", "0", "x", "", "{", "]", "pi/0", "1,,2", "99"]
# a non-finite float as a CSV row writes it; "#" lines echo the config
NON_FINITE_ROW = re.compile(r"^[^#].*\b(nan|inf)\b", re.IGNORECASE | re.MULTILINE)


@st.composite
def _file(draw, names):
    """A shipped file's text; a third of the time with one token replaced, or
    cut."""
    text = SHIPPED[draw(st.sampled_from(names))]
    if draw(st.integers(0, 2)):
        return text
    parts = re.split(r"(\s+)", text)
    tokens = [k for k, part in enumerate(parts) if part.strip()]
    if draw(st.booleans()):
        parts[draw(st.sampled_from(tokens))] = draw(st.sampled_from(BAD_TOKENS))
        return "".join(parts)
    return text[: draw(st.integers(0, len(text) - 1))]


@st.composite
def command_lines(draw):
    """``(argv, files)``: argv with ``{tmp}`` in place of a scratch directory,
    and the text of each input file it names there."""
    command = draw(st.sampled_from(["verify", "teleport", "acausal", "nmr"]))
    argv, files = [command], {}

    def option(flag, *valid, given=None):
        """Add ``flag`` half the time, or as ``given`` says; a value that is
        not a path is a boundary a quarter of the time."""
        if draw(st.booleans()) if given is None else given:
            path = valid[0].startswith("{tmp}")
            values = BOUNDARIES if not path and draw(st.integers(0, 3)) == 0 else valid
            argv.extend([flag, draw(st.sampled_from(values))])

    option("--seed", "7", "-12")
    option("--format", "json", "csv")
    option("--out", "{tmp}/report.out", "{tmp}/missing/report.out")
    if command in ("verify", "teleport"):
        option("--tol", "1e-9", "1e-12")
    if command == "verify":
        # sizes stay small: --trials takes no value above 3
        option("--trials", "2", "3")
        option("--dims", "2", "3", "2,3", "3,2", "2,2", "33", "2,x", "")
        if draw(st.booleans()):
            argv.append("--inject-fault")
    elif command == "teleport":
        files["circuit.json"] = draw(_file(["teleport_identity.json", "teleport_nonmax.json"]))
        argv += ["--circuit", "{tmp}/circuit.json"]
        option("--encoding", "spin", "photon")
        option("--alpha-phase", "pi/3", "-pi/2")
    elif command == "acausal":
        option("--bell", "PHI+", "PHI-", "psi+", "PSI-", "MAX", "")
    else:
        files["system.spinsys"] = draw(_file(["fourspin.spinsys"]))
        files["events.seq"] = draw(_file(["flip_off.seq", "flip_on.seq"]))
        argv += ["--spin-system", "{tmp}/system.spinsys", "--sequence", "{tmp}/events.seq"]
        option("--initial", "X00X", "XXIZ", "Z0Y1", "X00", "Q00X")
        option("--broadening", "0.5", "5")
        acquisition = [("--detect", "2", "4", "5"), ("--duration", "0.5", "1e-3"),
                       ("--points", "2", "64", "65537"), ("--fid-out", "{tmp}/fid.csv"),
                       ("--spectrum-out", "{tmp}/spectrum.csv")]
        if draw(st.booleans()):  # an acquisition, which needs the first three flags
            for k, (flag, *valid) in enumerate(acquisition):
                option(flag, *valid, given=k < 3 or None)
        elif draw(st.booleans()):  # one acquisition flag alone
            flag, *valid = draw(st.sampled_from(acquisition))
            option(flag, *valid, given=True)
    return argv, files


def _run(argv):
    """``(code, stdout, stderr)`` of one in-process call; argparse's exit
    is returned as its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, exc
            code = "usage"
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
# the photon encoding does not use the phase, which used to go unchecked
@example((["teleport", "--circuit", "{tmp}/c.json", "--encoding", "photon",
           "--alpha-phase", "nan"], {"c.json": SHIPPED["teleport_identity.json"]}))
def test_every_command_line_ends_in_an_exit_code(case):
    template, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [arg.format(tmp=tmp) for arg in template]
        code, stdout, stderr = _run(argv)
        assert code in (0, 1, 2, "usage"), (argv, stderr)
        if "nan" in argv:  # a nan flag value is an input error, used or not
            assert code != 0, argv
        if code in (2, "usage"):  # and no file written, however far the run got
            assert stderr and not stdout
            assert sorted(p.name for p in Path(tmp).iterdir()) == sorted(files), argv
            return
        outputs = {"stdout": stdout}
        for flag in ("--out", "--fid-out", "--spectrum-out"):
            if flag in argv:
                path = Path(argv[argv.index(flag) + 1])
                outputs[flag] = path.read_text(encoding="utf-8")
                assert outputs[flag], flag
        text = outputs["--out"] if "--out" in argv else stdout
        assert text
        for name, value in outputs.items():
            if value.startswith("{"):
                json.loads(value, parse_constant=pytest.fail)
            else:
                assert not NON_FINITE_ROW.search(value), (name, argv)
    if code == 1:
        assert argv[0] in ("verify", "teleport")
        if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
            report = json.loads(text)
            assert report.get("all_pass", report.get("agreement")) is False
