"""End-to-end CLI contract: deterministic artifacts, documented schemas,
config file handling, and the exit-status rules."""

import gc
import json
import math
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import ptsusy.cli
import ptsusy.coherent
import ptsusy.errors
import ptsusy.operators
import ptsusy.quadrature
import ptsusy.wavefn
from ptsusy.errors import PtsusyError, SubdivisionLimitError

CLI = [sys.executable, "-m", "ptsusy.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def load_schema(name):
    text = resources.files("ptsusy.schemas").joinpath(name).read_text()
    return json.loads(text)


def parse_csv(text):
    comments = [l for l in text.splitlines() if l.startswith("#")]
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")]
    header, data = rows[0], rows[1:]
    return comments, header, data


def test_spectrum_symmetric_well_energies():
    proc = run_cli("spectrum", "--nu", "0", "--beta", "0", "--n-max", "3", "--m-max", "0")
    comments, header, data = parse_csv(proc.stdout)
    assert header == ["m", "n", "energy"]
    assert comments[0].startswith("# params:")
    got = [float(r[2]) for r in data]
    want = [(k + 1) ** 2 * math.pi**2 for k in range(4)]
    assert got == pytest.approx(want, rel=1e-13)


def test_spectrum_shift_law_between_levels():
    proc = run_cli("spectrum", "--nu", "1", "--beta", "2", "--n-max", "4", "--m-max", "1")
    _, _, data = parse_csv(proc.stdout)
    by_level = {}
    for m, n, e in data:
        by_level.setdefault(int(m), []).append(float(e))
    # level 1 column equals level 0 shifted by one row, bit for bit
    assert by_level[1][:4] == by_level[0][1:5]


def test_spectrum_gap_factor_columns():
    proc = run_cli("spectrum", "--nu", "1", "--beta", "2", "--n-max", "1", "--m-max", "0", "--gap-factors")
    _, header, data = parse_csv(proc.stdout)
    assert header == ["m", "n", "energy", "gap_factor_m", "gap_factor_n"]
    assert float(data[0][3]) == pytest.approx(math.sqrt(50.0 / 9.0), rel=1e-12)


def test_spectrum_json_sorted_and_deterministic(tmp_path):
    a = run_cli("spectrum", "--nu", "1", "--beta", "2", "--format", "json").stdout
    b = run_cli("spectrum", "--nu", "1", "--beta", "2", "--format", "json").stdout
    assert a == b
    obj = json.loads(a)
    assert obj["command"] == "spectrum"
    assert list(obj.keys()) == sorted(obj.keys())


SPECTRUM_CSV = """\
# params: nu=0.0 beta=0.0 hbar=1.0 length=1.0 mass=0.5
m,n,energy,gap_factor_m,gap_factor_n
0,0,9.869604401089358,1.7320508075688774,3.0000000000000004
0,1,39.47841760435743,2.82842712474619,15.0
1,0,39.47841760435743,6.324555320336757,0.0
1,1,88.82643960980423,13.416407864998739,180.0
"""

SPECTRUM_JSON = """\
{
  "command": "spectrum",
  "params": {
    "beta": 0.0,
    "hbar": 1.0,
    "length": 1.0,
    "mass": 0.5,
    "nu": 0.0
  },
  "rows": [
    {
      "energy": 9.869604401089358,
      "m": 0,
      "n": 0
    },
    {
      "energy": 39.47841760435743,
      "m": 0,
      "n": 1
    }
  ]
}
"""


def test_spectrum_golden_bytes(capsys):
    args = ["spectrum", "--nu", "0", "--beta", "0", "--m-max", "1", "--n-max", "1"]
    assert ptsusy.cli.main(args + ["--gap-factors"]) == 0
    assert capsys.readouterr().out == SPECTRUM_CSV
    assert ptsusy.cli.main(args[:-3] + ["0", "--n-max", "1", "--format", "json"]) == 0
    assert capsys.readouterr().out == SPECTRUM_JSON


def test_wavefn_symmetric_ground_state():
    proc = run_cli("wavefn", "--nu", "0", "--beta", "0", "--m", "0", "--n", "0", "--grid", "9")
    comments, header, data = parse_csv(proc.stdout)
    assert header == ["x", "re", "im", "abs2"]
    # endpoint rows report exact zeros
    assert float(data[0][1]) == 0.0 and float(data[-1][1]) == 0.0
    for row in data:
        x, re = float(row[0]), float(row[1])
        assert re == pytest.approx(math.sqrt(2.0) * math.sin(math.pi * x), abs=1e-12)
    norm_line = [c for c in comments if c.startswith("# norm:")][0]
    assert float(norm_line.split(":")[1]) == pytest.approx(1.0, abs=1e-8)


def test_wavefn_byte_identical_reruns():
    args = ("wavefn", "--nu", "1", "--beta", "2", "--m", "1", "--n", "2", "--grid", "33")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_wavefn_states_are_real_in_csv_and_json(capsys):
    # every eigenfunction is summed in real arithmetic, so the im column is
    # an exact zero in both formats, and abs2 is re squared
    args = ["wavefn", "--nu", "1", "--beta", "2", "--m", "3", "--n", "7", "--grid", "41"]
    assert ptsusy.cli.main(args) == 0
    _, header, data = parse_csv(capsys.readouterr().out)
    im = header.index("im")
    assert len(data) == 41 and all(float(row[im]) == 0.0 for row in data)
    assert ptsusy.cli.main(args + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 41 and all(r["im"] == 0.0 for r in rows)
    assert all(r["abs2"] == r["re"] ** 2 for r in rows)
    assert any(r["re"] != 0.0 for r in rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args",
    [
        ["--nu", "1", "--beta", "1e30", "--m", "0", "--n", "1"],
        ["--nu", "1e150", "--beta", "0", "--m", "0", "--n", "0"],
        ["--nu", "0", "--beta", "1e150", "--m", "0", "--n", "0"],
    ],
)
def test_wavefn_unresolved_state_exits_1_with_its_report(capsys, args):
    # each state is narrower than the grid and the norm quadrature resolve
    # (within about 1e-30 L of a wall at beta 1e30, a peak about 1e-75 L wide
    # at nu 1e150): its norm reads 0.0, which once exited 0.  The report is
    # still written, with one stderr line and no warning
    assert ptsusy.cli.main(["wavefn", *args, "--format", "json"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["norm"] == 0.0 and len(report["rows"]) == 101
    (line,) = captured.err.splitlines()
    assert line.startswith("ptsusy: wavefn: norm 0.0 of state") and "1e-08" in line


def test_verify_json_schema_and_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "verify", "--nu", "1", "--beta", "2", "--n", "2", "--m", "1",
        "--format", "json", "--out", str(out),
    )
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_schema("verify_report.schema.json"))
    assert report["mandatory_pass"] is True
    names = {e["name"] for e in report["identities"]}
    assert "factorization" in names and "mixed_product" in names


def test_verify_csv_informational_rows_have_empty_verdict_cells(capsys):
    assert ptsusy.cli.main(["verify", "--n", "2", "--m", "1", "--grid", "21"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "# params: nu=1.0 beta=0.0 hbar=1.0 length=1.0 mass=0.5",
        "# indices: n=2 m=1 sign=1.0",
        "name,max_residual,threshold,passed,informational",
    ]
    assert lines[-1] == "# mandatory_pass: true"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[3:-1]}
    assert rows["factorization"][1:] == ["1e-09", "true", "false"]
    informational = [name for name, cells in rows.items() if cells[3] == "true"]
    assert informational == ["mixed_product", "partial_chain_product", "partial_chain_means"]
    for name in informational:
        assert rows[name][1:] == ["", "", "true"]


@pytest.mark.parametrize("n, m", [(7, 0), (8, 6)])
def test_verify_deep_cell_exits_zero_in_time(n, m):
    # (7, 0) once spent minutes in a norm integral that could not converge,
    # and (8, 6) failed mean_BdagB falsely under the jet fold
    proc = subprocess.run(
        CLI + ["verify", "--n", str(n), "--m", str(m)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("n, m", [(5, 5), (15, 4)])
def test_verify_cell_at_cli_defaults_is_honest_and_fast(n, m):
    # At the CLI defaults (nu 1, beta 0), (5, 5) read product_BdagB 2e298
    # through a vanishing scale factor and exited 1, and (15, 4) spent 8.7 s
    # integrating roundoff in eigen_residual and exited 2.  The partial-chain
    # means of (15, 4) need a state above the level cap: that row is skipped
    # with the reason, and the verdict stands.
    start = time.perf_counter()
    proc = subprocess.run(
        CLI + ["verify", "--n", str(n), "--m", str(m), "--format", "json"], capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stdout + proc.stderr
    assert elapsed < 3.0
    report = json.loads(proc.stdout)
    jsonschema.validate(report, load_schema("verify_report.schema.json"))
    assert report["mandatory_pass"] is True
    skipped = [e for e in report["identities"] if isinstance(e["max_residual"], str)]
    if n > 9:
        (row,) = skipped
        assert row["name"] == "partial_chain_means" and row["passed"] is None
        assert row["max_residual"] == "DegreeCapError" and "exceeds cap" in row["details"]["error"]
    else:
        assert skipped == []


def test_verify_row_above_the_level_cap_fails_alone(capsys, monkeypatch):
    # At (10, 1) every mandatory identity lies within the level cap, but the
    # informational partial-chain means need the level-11 state n = 10: that
    # row alone is skipped as DegreeCapError.  With every quadrature out of
    # panels, the adaptive one of adjoint_consistency and the integral of
    # each quadrature row, every such row records the error, a tolerance
    # override leaves a mandatory one failed, and the other rows stand.
    def out_of_panels(*args, **kwargs):
        raise SubdivisionLimitError("no panels left")

    monkeypatch.setattr(ptsusy.operators, "integrate_interval", out_of_panels)
    monkeypatch.setattr(ptsusy.operators, "_integrate", out_of_panels)
    args = ["verify", "--n", "10", "--m", "1", "--format", "json", "--tol-eigen_residual", "1"]
    assert ptsusy.cli.main(args) == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, load_schema("verify_report.schema.json"))
    by_name = {e["name"]: e for e in report["identities"]}
    row = by_name.pop("partial_chain_means")
    assert row["max_residual"] == "DegreeCapError" and row["passed"] is None
    assert "exceeds cap" in row["details"]["error"]
    for name in ("mean_BBdag", "mean_BdagB", "adjoint_consistency", "eigen_residual"):
        row = by_name.pop(name)
        assert row["max_residual"] == "SubdivisionLimitError" and row["passed"] is False, name
        assert row["details"]["error"] == "no panels left"
    assert all(not isinstance(e["max_residual"], str) and e["passed"] is not False for e in by_name.values())


@pytest.mark.parametrize(("n", "m", "degree"), [(0, 17, 21), (30, 0, 31)])
def test_verify_cell_above_the_level_cap_exits_2(n, m, degree):
    # the corpus of level m + 1 reaches degree m + 4, the ladder action
    # degree n + m + 1: above the cap no verdict can be certified
    start = time.perf_counter()
    proc = run_cli("verify", "--n", str(n), "--m", str(m), check=False)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("ptsusy: error: ") and f"degree {degree}, which exceeds cap 20" in line


def test_verify_corrupt_sign_fails_with_nonzero_exit(tmp_path):
    out = tmp_path / "bad.json"
    proc = run_cli(
        "verify", "--nu", "1", "--beta", "2", "--n", "2", "--m", "1",
        "--corrupt-w-sign", "--format", "json", "--out", str(out),
        check=False,
    )
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_schema("verify_report.schema.json"))
    failing = {e["name"] for e in report["identities"] if e["passed"] is False}
    assert "factorization" in failing
    assert report["mandatory_pass"] is False


def test_verify_tolerance_override_forces_failure():
    proc = run_cli(
        "verify", "--nu", "1", "--beta", "2", "--n", "1", "--m", "0",
        "--tol-factorization", "1e-30", check=False,
    )
    assert proc.returncode == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nu = 2.5\nbeta = 1.0  # tilt\nn_max = 1\nm_max = 0\n")
    base = run_cli("spectrum", "--config", str(cfg)).stdout
    assert "nu=2.5" in base and "beta=1.0" in base
    over = run_cli("spectrum", "--config", str(cfg), "--beta", "0").stdout
    assert "beta=0.0" in over
    # beta=0 symmetric well: E_0 = eps0 (nu+1)^2
    _, _, data = parse_csv(over)
    assert float(data[0][2]) == pytest.approx(3.5**2 * math.pi**2, rel=1e-13)


def test_config_parse_error_diagnostics(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nu = 1.0\nwhatever = 3\n")
    proc = run_cli("spectrum", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert "bad.cfg:2" in proc.stderr and "whatever" in proc.stderr


def test_config_format_must_be_csv_or_json(tmp_path, capsys):
    cfg = tmp_path / "fmt.cfg"
    cfg.write_text("nu = 1.0\nformat = xml\n")
    for command in ("spectrum", "verify"):
        assert ptsusy.cli.main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fmt.cfg:2" in captured.err and "format" in captured.err


@pytest.mark.parametrize("line", ["m = 1.7", "n = 2.9", "m_max = 0.5", "n_max = 1e-3", "grid = 2.5"])
def test_config_integer_keys_reject_fractions(tmp_path, capsys, line):
    cfg = tmp_path / "int.cfg"
    cfg.write_text(f"# integer fields\n{line}\n")
    command = "spectrum" if "max" in line else "wavefn"
    assert ptsusy.cli.main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "int.cfg:2" in captured.err and line.split()[0] in captured.err


@pytest.mark.parametrize("key", ["q", "p"])
def test_config_empty_label_list_rejected(tmp_path, capsys, key):
    # an empty list once fell back to the default labels without a word
    cfg = tmp_path / "labels.cfg"
    cfg.write_text(f"q = 0.3\np = 1.0\n{key} =\n")
    assert ptsusy.cli.main(["coherent", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "labels.cfg:3" in line and f"field {key}" in line


def test_config_integer_keys_accept_integral_floats(tmp_path, capsys):
    cfg = tmp_path / "int.cfg"
    cfg.write_text("m = 1\nn = 2.0\ngrid = 5.0\n")
    assert ptsusy.cli.main(["wavefn", "--config", str(cfg)]) == 0
    flags = capsys.readouterr().out
    assert ptsusy.cli.main(["wavefn", "--m", "1", "--n", "2", "--grid", "5"]) == 0
    assert capsys.readouterr().out == flags


@pytest.mark.parametrize("command", ["verify", "coherent"])
def test_grid_zero_rejected(capsys, command):
    assert ptsusy.cli.main([command, "--grid", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    least = {"verify": 3, "coherent": 1}[command]
    assert captured.err.splitlines() == [f"ptsusy: config error: grid_points must be at least {least}"]


@pytest.mark.parametrize("grid", ["1", "2"])
def test_verify_grid_below_the_schema_minimum_rejected(capsys, grid):
    # the report schema asks for a grid of at least 3 points
    assert load_schema("verify_report.schema.json")["properties"]["grid_size"]["minimum"] == 3
    assert ptsusy.cli.main(["verify", "--grid", grid, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["ptsusy: config error: grid_points must be at least 3"]


@pytest.mark.parametrize("grid", [10**20, 2**63 + 4])
def test_coherent_grid_past_numpy_size_exits_at_once(grid):
    # numpy refuses 10**20 kernel points and builds none for 2**63 + 4;
    # either run exits 2 within seconds with a message and no traceback
    proc = subprocess.run(CLI + ["coherent", "--grid", str(grid)], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("ptsusy: ") and "Traceback" not in proc.stderr


def test_coherent_grid_is_checked_before_any_gram(capsys, monkeypatch):
    # the kernel points were built and checked only after the Gram of every
    # state and the closed-form overlaps
    def no_gram(*args, **kwargs):
        raise AssertionError("gram_matrix reached")

    monkeypatch.setattr(ptsusy.wavefn, "gram_matrix", no_gram)
    assert ptsusy.cli.main(["coherent", "--grid", str(2**63 + 4)]) == 2
    assert capsys.readouterr().err == f"ptsusy: config error: grid_points {2**63 + 4} is too large\n"


def test_coherent_csv_self_overlap_and_kernel():
    proc = run_cli(
        "coherent", "--nu", "1", "--beta", "2", "--m", "0",
        "--q", "0.3", "--q", "0.7", "--p", "0", "--grid", "3",
    )
    lines = proc.stdout.splitlines()
    assert "# table: normalization" in lines
    assert "# table: overlaps" in lines
    assert "# table: resolution" in lines
    assert lines[-1] == "# all_pass: true"
    # self-overlap rows appear with unit magnitude
    overlap_start = lines.index("# table: overlaps") + 2
    first = lines[overlap_start].split(",")
    assert float(first[6]) == pytest.approx(1.0, abs=1e-12)
    # kernel column within tolerance of unity
    res_start = lines.index("# table: resolution") + 2
    for row in lines[res_start:-1]:
        assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-6)


def test_coherent_tables_are_one_gram_integral(monkeypatch, capsys):
    # counted through the one module binding the CLI reaches it by, as the
    # coherent layer integrates its Grams through wavefn's; the quadrature
    # module's own name would count endpoint substitution's inner call
    calls = []
    real = ptsusy.wavefn.integrate_interval

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    assert not hasattr(ptsusy.coherent, "integrate_interval")
    monkeypatch.setattr(ptsusy.wavefn, "integrate_interval", counted)
    args = ["coherent", "--q", "0.3", "--q", "0.6", "--p", "-1", "--p", "2", "--skip-resolution"]
    assert ptsusy.cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.endswith("# all_pass: true\n")
    assert len(calls) == 1


def test_coherent_deviation_equal_to_its_tolerance_fails(capsys):
    # the suite's pass rule (operators.passes): strictly below the tolerance.
    # The self overlap of a state is exactly 1, so its deviation 0.0 fails a
    # tolerance of 0
    base = ["coherent", "--q=0.5", "--p=0", "--grid", "3", "--format", "json"]
    assert ptsusy.cli.main([*base, "--skip-resolution", "--tol-overlap", "0", "--tol-normalization", "1"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["normalization"]
    assert row["self_overlap_dev"] == 0.0 and row["passed"] is False
    # each other deviation, read from a passing run, set as its own tolerance
    assert ptsusy.cli.main(base) == 0
    first = json.loads(capsys.readouterr().out)
    (norm,), (overlap,) = first["normalization"], first["overlaps"]
    kernel_devs = [abs(r["kernel"] - 1.0) for r in first["resolution"]["rows"]]
    tols = {
        "normalization": norm["norm_quadrature_dev"],
        "overlap": overlap["quadrature_dev"],
        "resolution": kernel_devs[1],
    }
    assert all(tol > 0.0 for tol in tols.values()) and norm["self_overlap_dev"] < tols["overlap"]
    flags = [arg for name, tol in tols.items() for arg in (f"--tol-{name}", repr(tol))]
    assert ptsusy.cli.main([*base, *flags]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["normalization"][0]["passed"] is False
    assert report["overlaps"][0]["passed"] is False
    assert [r["passed"] for r in report["resolution"]["rows"]] == [dev < kernel_devs[1] for dev in kernel_devs]
    assert report["all_pass"] is False


def test_coherent_json_schema_and_determinism(tmp_path):
    args = (
        "coherent", "--nu", "1", "--beta", "2", "--m", "1",
        "--q", "0.4", "--p", "1.5", "--grid", "3", "--format", "json",
    )
    a = run_cli(*args).stdout
    b = run_cli(*args).stdout
    assert a == b
    report = json.loads(a)
    jsonschema.validate(report, load_schema("coherent_report.schema.json"))
    assert report["all_pass"] is True


def test_coherent_skip_resolution():
    proc = run_cli(
        "coherent", "--nu", "1", "--beta", "2", "--m", "0",
        "--q", "0.5", "--p", "0", "--skip-resolution", "--format", "json",
    )
    assert "resolution" not in json.loads(proc.stdout)


def test_out_flag_writes_file_with_lf_endings(tmp_path):
    out = tmp_path / "spec.csv"
    run_cli("spectrum", "--nu", "0", "--beta", "0", "--out", str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


# the package's own errors, not the subclasses that other imported modules add
PACKAGE_ERRORS = [
    e for e in vars(ptsusy.errors).values() if isinstance(e, type) and issubclass(e, PtsusyError) and e is not PtsusyError
]


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda e: e.__name__)
def test_package_errors_exit_2_with_one_stderr_line(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("integrator gave up")

    # the norm's integral, as wavefn._gram calls it
    monkeypatch.setattr(ptsusy.wavefn, "integrate_interval", fail)
    code = ptsusy.cli.main(["wavefn", "--n", "1", "--grid", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["ptsusy: error: integrator gave up"]
    assert "Traceback" not in captured.err


# a gauge outside double range, by command line, and the field it names
OUT_OF_RANGE = {
    "spectrum --beta 1e200": "beta",
    "spectrum --nu 1e160": "nu",
    "spectrum --length 1e-200": "length",
    "spectrum --hbar 1e-200": "hbar",
    "verify --length 1e200": "length",
    "verify --nu 1e160": "nu",
    "verify --hbar 1e-200 --n 1": "hbar",
    "spectrum --nu 0 --beta 1e80 --gap-factors": "gap factor",
    # a gap factor of verify (beta 1e25) and the (2M)^(m+1) of product_BdagB
    # (mass 1e200), checked before any word of the cell is folded
    "verify --nu 0 --beta 1e25 --n 6 --m 5": "gap factor",
    "verify --hbar 1e100 --mass 1e200 --n 0 --m 3": "closed form",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", list(OUT_OF_RANGE))
def test_gauge_outside_double_range_exits_2_with_one_stderr_line(capsys, command):
    # these stopped with an OverflowError or ZeroDivisionError traceback
    # (exit 1), printed energies of inf or 0.0, or passed verify rows with
    # residual 0.0 while numpy warned; no warning may be raised either
    field = OUT_OF_RANGE[command]
    assert ptsusy.cli.main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("ptsusy: error: ") and f"{field} " in line and "Traceback" not in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["q", "p"])
def test_nonfinite_phase_labels_rejected(tmp_path, capsys, key, value):
    # rejected before any state is built: one stderr line and no numpy warning
    assert ptsusy.cli.main(["coherent", f"--{key}", value, "--skip-resolution"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"ptsusy: config error: flag --{key}: expected a finite number, got {float(value)!r}"
    ]
    cfg = tmp_path / "labels.cfg"
    cfg.write_text(f"nu = 1.0\n{key} = 0.5, {value}\n")
    assert ptsusy.cli.main(["coherent", "--config", str(cfg), "--skip-resolution"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "labels.cfg:2" in captured.err and f"field {key}" in captured.err


@pytest.mark.parametrize("flag", ["--m-max", "--n-max"])
def test_spectrum_rejects_negative_caps(capsys, flag):
    assert ptsusy.cli.main(["spectrum", flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key = flag[2:].replace("-", "_")
    assert captured.err.splitlines() == [f"ptsusy: config error: {key} must be nonnegative, got -1"]


def test_coherent_rejects_negative_level(tmp_path, capsys):
    assert ptsusy.cli.main(["coherent", "--m", "-1", "--skip-resolution"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["ptsusy: error: hierarchy level must be nonnegative, got m=-1"]
    cfg = tmp_path / "level.cfg"
    cfg.write_text("m = -1\n")
    assert ptsusy.cli.main(["coherent", "--config", str(cfg), "--skip-resolution"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["ptsusy: error: hierarchy level must be nonnegative, got m=-1"]


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", ["nu", "beta", "hbar", "length", "mass"])
def test_nonfinite_model_parameters_rejected(capsys, key, value):
    args = ["spectrum", "--m-max", "0", "--n-max", "1", f"--{key}", value]
    assert ptsusy.cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"ptsusy: error: {key} must be finite, got {float(value)!r}"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
@pytest.mark.parametrize(("command", "name"), [("verify", "factorization"), ("coherent", "overlap")])
def test_unusable_tolerances_rejected(tmp_path, capsys, command, name, value):
    # a non-finite tolerance made a report its schema rejects, a negative one
    # a verdict no residual can pass; both are rejected before any work
    assert ptsusy.cli.main([command, f"--tol-{name}={value}", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"ptsusy: config error: flag --tol-{name}: expected a finite nonnegative tolerance, got {value!r}"
    ]
    cfg = tmp_path / "tols.cfg"
    cfg.write_text(f"nu = 1.0\ntol_{name} = {value}\n")
    assert ptsusy.cli.main([command, "--config", str(cfg), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"ptsusy: config error: {cfg}:2: field tol_{name}: expected a finite nonnegative tolerance, got {value!r}"
    ]


@pytest.mark.parametrize(
    ("command", "flag"),
    [
        ("verify", "--tol-factorisation"),
        ("verify", "--tol-overlap"),
        ("verify", "--tol-mixed_product"),
        ("verify", "--tol-supercharge_anticommutator_block0"),
        ("coherent", "--tol-factorization"),
        ("spectrum", "--tol-overlap"),
        ("wavefn", "--tol-normalization"),
    ],
)
def test_tolerance_flags_the_command_does_not_read_rejected(capsys, command, flag):
    # a misspelled or misplaced override used to be ignored with exit 0
    assert ptsusy.cli.main([command, flag, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"ptsusy: config error: flag {flag}: {command} reads no tolerance of that name"]


@pytest.mark.parametrize("command", ["verify", "coherent"])
def test_config_tolerance_no_subcommand_reads_rejected(tmp_path, capsys, command):
    # a misspelled tolerance in a config file used to run with the default
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("nu = 1.0\ntol_ladder_actoin = 1e-3\n")
    assert ptsusy.cli.main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"ptsusy: config error: {cfg}:2: field tol_ladder_actoin: no subcommand reads a tolerance of that name"
    ]


@pytest.mark.parametrize(
    ("command", "extra"), [("verify", ["--n", "1", "--m", "0"]), ("coherent", ["--skip-resolution"])]
)
def test_config_tolerance_of_the_other_subcommand_accepted(tmp_path, capsys, command, extra):
    # one file may serve both subcommands; each reads its own tolerances
    cfg = tmp_path / "both.cfg"
    cfg.write_text("tol_ladder_action = 1e-3\ntol_overlap = 1e-3\n")
    assert ptsusy.cli.main([command, "--config", str(cfg), "--format", "json", *extra]) == 0
    report = json.loads(capsys.readouterr().out)
    if command == "verify":
        assert {e["name"]: e for e in report["identities"]}["ladder_action"]["threshold"] == 1e-3
    else:
        assert report["tolerances"]["overlap"] == 1e-3


def test_verify_tolerance_names_are_the_mandatory_identities():
    # at n > m every mandatory identity has a row, in report order; an alias
    # row has no tolerance of its own
    results = ptsusy.operators.verify_operator_identities(ptsusy.cli._params(ptsusy.cli._DEFAULTS), 2, 1)
    names = [r.name for r in results if not r.informational and "alias_of" not in r.details]
    assert list(ptsusy.cli._tolerance_names("verify")) == names


def test_an_alias_row_follows_its_identity_under_an_override(tmp_path, capsys):
    # product_BdagB and supercharge_anticommutator_block0 report one check
    # with one residual: the identity's override fails both rows, and an
    # alias has no tolerance of its own (its flag: the rejection test above)
    args = ["verify", "--n", "2", "--m", "1", "--format", "json"]
    assert ptsusy.cli.main([*args, "--tol-product_BdagB", "1e-30"]) == 1
    rows = {e["name"]: e for e in json.loads(capsys.readouterr().out)["identities"]}
    for name in ("product_BdagB", "supercharge_anticommutator_block0"):
        assert rows[name]["threshold"] == 1e-30 and rows[name]["passed"] is False, name
    assert rows["product_BdagB"]["max_residual"] == rows["supercharge_anticommutator_block0"]["max_residual"]
    assert rows["supercharge_anticommutator_block1"]["threshold"] == 1e-9
    cfg = tmp_path / "alias.cfg"
    cfg.write_text("tol_supercharge_commutator = 1\n")
    assert ptsusy.cli.main([*args, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"ptsusy: config error: {cfg}:1: field tol_supercharge_commutator: no subcommand reads a tolerance of that name"
    ]


def test_zero_and_dashed_tolerance_flags_accepted(capsys):
    # a zero threshold is a valid (failing) override, and dashes in a flag's
    # name stand for underscores; an override keeps the suite's strict rule,
    # so the exactly-zero annihilation residual of (1, 0) fails threshold 0
    args = ["verify", "--n", "1", "--m", "0", "--tol-eigen-residual", "0"]
    args += ["--tol-ground_state_annihilation", "0", "--format", "json"]
    assert ptsusy.cli.main(args) == 1
    report = json.loads(capsys.readouterr().out)
    rows = {e["name"]: e for e in report["identities"]}
    assert rows["ground_state_annihilation"]["max_residual"] == 0.0
    for name in ("eigen_residual", "ground_state_annihilation"):
        assert rows[name]["threshold"] == 0.0 and rows[name]["passed"] is False, name


# -- the process entry point ---------------------------------------------------
# run() turns the collector off and freezes what is live before the process
# exits; it is called here only in subprocesses, as in the pytest process it
# would leave the collector off.


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize(
    ("args", "code"),
    [
        (["spectrum", "--format", "json"], 0),
        (["verify", "--n", "1", "--m", "0", "--tol-eigen-residual", "0", "--format", "json"], 1),
        (["spectrum", "--beta", "1e200"], 2),
        (["bogus"], 2),
        (["--help"], 0),
    ],
    ids=["exit0", "exit1", "exit2", "usage", "help"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_main_leaves_the_collector_as_it_found_it(args, code, enabled):
    was_enabled = gc.isenabled()
    try:
        _set_collector(enabled)
        frozen = gc.get_freeze_count()
        assert ptsusy.cli.main(args) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        _set_collector(was_enabled)


def test_run_turns_the_collector_off_and_freezes_before_exit():
    # what the process sees at exit, printed by an atexit handler
    script = (
        "import atexit, gc, sys; from ptsusy import cli;"
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr));"
        "sys.argv = ['ptsusy', 'spectrum', '--format', 'json']; cli.run()"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and json.loads(proc.stdout)["command"] == "spectrum"
    assert proc.stderr == "False True\n"


def _workload_commands(tmp_path):
    # the eight commands the benchmark's cli workload runs, on a fixed model
    model_text = "nu = 1.37\nbeta = 1.61\nhbar = 1.0\nlength = 1.2\nmass = 0.5\n"
    model, states = tmp_path / "model.cfg", tmp_path / "states.cfg"
    model.write_text(model_text)
    states.write_text(model_text + "q = 0.36, 0.72\np = -2.0, 1.5\nm = 1\n")
    cfg = ["--config", str(model)]
    near_wall = ["--q=0.018", "--q=0.6", "--q=1.164", "--p=-3.0", "--p=2.0"]
    return {
        "spectrum-csv": ["spectrum", *cfg, "--gap-factors", "--m-max", "3", "--n-max", "6"],
        "spectrum-json": ["spectrum", *cfg, "--format", "json"],
        "wavefn-csv": ["wavefn", *cfg, "--m", "2", "--n", "3", "--grid", "201"],
        "wavefn-json": ["wavefn", *cfg, "--n", "5", "--format", "json"],
        "verify-json": ["verify", *cfg, "--n", "1", "--m", "2", "--format", "json"],
        "verify-corrupt": ["verify", *cfg, "--n", "2", "--m", "1", "--corrupt-w-sign", "--format", "json"],
        "coherent-json": ["coherent", *cfg, *near_wall, "--format", "json"],
        "coherent-csv": ["coherent", "--config", str(states), "--skip-resolution"],
    }


@pytest.mark.parametrize(
    "label",
    ["spectrum-csv", "spectrum-json", "wavefn-csv", "wavefn-json", "verify-json", "verify-corrupt", "coherent-json", "coherent-csv"],
)
def test_process_entry_prints_what_main_prints(tmp_path, capsysbinary, label):
    args = _workload_commands(tmp_path)[label]
    proc = subprocess.run(CLI + args, capture_output=True, timeout=300)
    code = ptsusy.cli.main(args)
    out = capsysbinary.readouterr().out
    assert code == (1 if label == "verify-corrupt" else 0)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_process_entry_help_and_usage_exits():
    proc = run_cli("--help")
    assert proc.stdout.startswith("usage:") and proc.stderr == ""
    proc = run_cli("bogus", check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid choice: 'bogus'" in proc.stderr and "Traceback" not in proc.stderr


def test_console_script_is_the_process_entry():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts.strip().splitlines() == ['ptsusy = "ptsusy.cli:run"']
