"""Command-line behavior: flags, files, exit codes, determinism."""

import json

import pytest

from multamp.cli import (
    EXIT_CONFIG,
    EXIT_MEMORY,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_OVERFLOW,
    main,
)

LATTICE = ["--rows", "2", "--cols", "2", "--beta-j", "0.1"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- plan -----------------------------------------------------------------

def test_plan_reports_register_widths(tmp_path, capsys):
    code, out, _ = run(["plan", "--eps", "0.001", "--delta", "0.001",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert "d = 13" in out
    data = json.loads((tmp_path / "plan.json").read_text())
    assert data["d"] == 13
    assert data["controlled_exponent_qubits"] == 26
    assert data["comparator_bits_per_register"] == 10
    assert data["comparator_ancilla_qubits"] == 31


def test_plan_requires_both_tolerances(capsys):
    code, _, err = run(["plan", "--eps", "0.001"], capsys)
    assert code == EXIT_CONFIG
    assert "delta" in err


# --- synth -----------------------------------------------------------------

def test_synth_writes_diagnostics(tmp_path, capsys):
    code, out, _ = run(["synth", *LATTICE, "--variant", "direct",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["total_qubits"] == 8
    assert data["nu"] == 2
    assert abs(data["u_sq"] - 0.1675) < 0.0005
    assert abs(data["measured_postamp"] - 0.738) < 0.002


def test_synth_exit_codes(capsys):
    code, _, err = run(["synth", "--rows", "2", "--cols", "2"], capsys)
    assert code == EXIT_CONFIG  # no coupling given
    code, _, err = run(["synth", *LATTICE, "--d", "2"], capsys)
    assert code == EXIT_OVERFLOW
    assert "d" in err
    code, _, err = run(["synth", "--rows", "4", "--cols", "4",
                        "--beta-j", "0.1", "--variant", "controlled"], capsys)
    assert code == EXIT_MEMORY
    assert "--allow-large" in err
    code, _, _ = run(["synth", *LATTICE, "--beta-rel-critical", "1.0"], capsys)
    assert code == EXIT_CONFIG  # mutually exclusive couplings


@pytest.mark.parametrize("flags, buffer, peak", [([], "2.0", "4.0"),
                                                  (["--single-precision"], "1.0", "2.5")])
def test_memory_refusal_states_the_sampling_peak(flags, buffer, peak, capsys):
    # 4x4 controlled is 27 qubits; sampling holds probabilities and a float64 cumsum
    code, _, err = run(["sample", "--rows", "4", "--cols", "4", "--beta-j", "0.1",
                        "--variant", "controlled", *flags], capsys)
    assert code == EXIT_MEMORY
    assert f"27 qubits need a {buffer} GiB amplitude buffer and peak at {peak} GiB" in err


def test_synth_rejects_unknown_variant():
    # synth writes only run.json, so it takes no --format either
    for flags in (["--variant", "sideways"], ["--format", "json"]):
        with pytest.raises(SystemExit) as info:
            main(["synth", *LATTICE, *flags])
        assert info.value.code == 2  # argparse usage error


# --- sample -----------------------------------------------------------------

def test_sample_postselect_outputs(tmp_path, capsys):
    code, out, _ = run(["sample", *LATTICE, "--shots", "4000", "--seed", "9",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    run_data = json.loads((tmp_path / "run.json").read_text())
    assert run_data["keep"] == "postselect"
    assert run_data["shots"] == 4000
    assert 0.6 < run_data["efficiency"] < 0.85
    header, *rows = (tmp_path / "sigma_hist.csv").read_text().splitlines()
    assert header == "sigma,observed,observed_per_state,theory"
    assert [int(r.split(",")[0]) for r in rows] == [0, 4, 8]
    kept = run_data["kept_shots"]
    assert sum(int(r.split(",")[1]) for r in rows) == kept
    mag_header, *mag_rows = (tmp_path / "magnetization_hist.csv").read_text().splitlines()
    assert mag_header == "m,probability"
    assert [int(r.split(",")[0]) for r in mag_rows] == [-4, -2, 0, 2, 4]
    total = sum(float(r.split(",")[1]) for r in mag_rows)
    assert abs(total - 1.0) < 1e-9


def test_sample_conditional_keeps_every_shot(tmp_path, capsys):
    code, out, _ = run(["sample", *LATTICE, "--keep", "conditional",
                        "--shots", "2000", "--seed", "4",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["kept_shots"] == 2000
    assert data["efficiency"] is None
    assert data["sigma_fit"]["p_value"] > 0.001


def test_sample_json_format(tmp_path, capsys):
    code, _, _ = run(["sample", *LATTICE, "--shots", "1000", "--seed", "2",
                      "--format", "json", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    rows = json.loads((tmp_path / "sigma_hist.json").read_text())
    assert [row["sigma"] for row in rows] == [0, 4, 8]


def test_sample_reruns_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    argv = ["sample", *LATTICE, "--shots", "3000", "--seed", "31"]
    assert run([*argv, "--out", str(first)], capsys)[0] == EXIT_OK
    assert run([*argv, "--out", str(second)], capsys)[0] == EXIT_OK
    for name in ("run.json", "sigma_hist.csv", "magnetization_hist.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# kept_shots and the observed column of sigma_hist.csv for
# `sample --rows S --cols S --beta-j 0.1 --shots 4096 --seed 23`: pinned
# fixed-seed output, so a refactor of the sampling path cannot move a draw
# unnoticed (a rerun compared with itself cannot see that)
GOLDEN_COUNTS = {
    ("2", "direct", "postselect"): (3077, [796, 2113, 168]),
    ("2", "direct", "conditional"): (4096, [978, 2902, 216]),
    ("2", "controlled", "postselect"): (2212, [536, 1573, 103]),
    ("2", "controlled", "conditional"): (4096, [1025, 2886, 185]),
    ("3", "direct", "postselect"): (3948, [80, 304, 589, 1732, 814, 429]),
    ("3", "direct", "conditional"): (4096, [89, 356, 603, 1733, 901, 414]),
    ("3", "controlled", "postselect"): (2685, [61, 211, 408, 1152, 576, 277]),
    ("3", "controlled", "conditional"): (4096, [88, 339, 630, 1820, 842, 377]),
}


@pytest.mark.parametrize("size,variant,keep", list(GOLDEN_COUNTS))
def test_sample_counts_match_the_recorded_values(size, variant, keep, tmp_path, capsys):
    argv = ["sample", "--rows", size, "--cols", size, "--beta-j", "0.1",
            "--variant", variant, "--keep", keep, "--shots", "4096", "--seed", "23",
            "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == EXIT_OK
    kept = json.loads((tmp_path / "run.json").read_text())["kept_shots"]
    rows = (tmp_path / "sigma_hist.csv").read_text().splitlines()
    assert rows[0].split(",")[:2] == ["sigma", "observed"]
    observed = [int(row.split(",")[1]) for row in rows[1:]]
    assert (kept, observed) == GOLDEN_COUNTS[(size, variant, keep)]


COMPLEX64_POSTAMP_TOL = 1e-5  # measured drift from complex128 is below 1e-6


@pytest.mark.parametrize("size", ["2", "3"])
def test_sample_single_precision_tracks_double(size, tmp_path, capsys):
    argv = ["sample", "--rows", size, "--cols", size, "--beta-j", "0.1", "--shots", "2000"]
    postamp = {}
    for flag in ([], ["--single-precision"]):
        out = tmp_path / ("single" if flag else "double")
        code, _, err = run([*argv, *flag, "--out", str(out)], capsys)
        assert code == EXIT_OK, err
        postamp[bool(flag)] = json.loads((out / "run.json").read_text())["measured_postamp"]
    assert abs(postamp[True] - postamp[False]) < COMPLEX64_POSTAMP_TOL


def test_table1_single_precision_rows_pass(capsys):
    code, out, err = run(["table1", "--sizes", "2,3", "--shots", "20000",
                          "--single-precision"], capsys)
    assert code == EXIT_OK, err
    assert out.count("[ok]") == 4


def test_sample_rejects_bad_shots(capsys):
    code, _, _ = run(["sample", *LATTICE, "--shots", "0"], capsys)
    assert code == EXIT_CONFIG


# --- config files -----------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rows = 2\ncols = 2\nbeta_j = 0.1\n"
                   "variant = controlled\nshots = 500  # comment\n")
    code, out, _ = run(["synth", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert "qubits = 11" in out  # controlled layout from the file
    code, out, _ = run(["synth", "--config", str(cfg), "--variant", "direct"], capsys)
    assert code == EXIT_OK
    assert "qubits = 8" in out  # explicit flag wins
    with cfg.open("a") as fh:
        fh.write("enforce_zero = yes\nd = 4\n")
    code, out, _ = run(["synth", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert "qubits = 14" in out  # controlled, d = 4 and the z flag, all from the file
    code, out, _ = run(["synth", "--config", str(cfg), "--variant", "direct"], capsys)
    assert code == EXIT_OK
    assert "qubits = 10" in out


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, err = run(["synth", "--config", str(missing)], capsys)
    assert code == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("rows : 2\n")
    code, _, err = run(["synth", "--config", str(bad)], capsys)
    assert code == EXIT_CONFIG
    typo = tmp_path / "typo.cfg"
    typo.write_text("rosw = 2\n")
    code, _, err = run(["synth", "--config", str(typo)], capsys)
    assert code == EXIT_CONFIG
    assert "rosw" in err
    badvalue = tmp_path / "badvalue.cfg"
    badvalue.write_text("rows = two\n")
    code, _, err = run(["synth", "--config", str(badvalue)], capsys)
    assert code == EXIT_CONFIG
    # values are checked like the flags: on/off words and choices
    for line, key in [("enforce_zero = maybe", "enforce_zero"),
                      ("format = xml", "format"), ("keep = all", "keep")]:
        badvalue.write_text(f"{line}\n")
        code, _, err = run(["sample", *LATTICE, "--shots", "100",
                            "--config", str(badvalue), "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert key in err


# --- table1 -----------------------------------------------------------------

def test_table1_smallest_rows_pass(tmp_path, capsys):
    code, out, _ = run(["table1", "--sizes", "2", "--shots", "20000",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert out.count("[ok]") == 2
    header, *rows = (tmp_path / "table1.csv").read_text().splitlines()
    assert header.startswith("lattice,variant,qubits,d,nu,u_sq,postamp")
    assert len(rows) == 2
    assert rows[0].startswith("2x2,direct,8,3,2,")
    assert rows[1].startswith("2x2,controlled,11,3,1,")


def test_table1_skips_gated_sizes_without_allow_large(monkeypatch, capsys):
    # shrink the budget so both 3x3 rows (13 and 16 qubits) gate out
    from multamp import cli
    monkeypatch.setattr(cli, "DEFAULT_QUBIT_BUDGET", 12)
    code, out, _ = run(["table1", "--sizes", "3", "--shots", "100"], capsys)
    assert code == EXIT_OK
    assert out.count("skipped") == 2
    assert "--allow-large" in out


def test_table1_gates_on_the_computed_layout(monkeypatch, capsys):
    # the expected-row qubit counts are poisoned to 0, so only the layouts
    # computed for the rows (22 and 27 qubits) can skip them
    from multamp import cli, ising
    poisoned = {key: dict(row, qubits=0) for key, row in cli.TABLE1_EXPECTED.items()}
    monkeypatch.setattr(cli, "TABLE1_EXPECTED", poisoned)
    monkeypatch.setattr(cli, "DEFAULT_QUBIT_BUDGET", 21)  # gates the direct row too

    def refuse(*args, **kwargs):
        raise AssertionError("a gated row was synthesized")

    monkeypatch.setattr(ising, "synthesize_boltzmann", refuse)
    code, out, _ = run(["table1", "--sizes", "4"], capsys)
    assert code == EXIT_OK
    assert "4x4 direct: skipped (22 qubits" in out
    assert "4x4 controlled: skipped (27 qubits" in out


def test_table1_rejects_unknown_sizes(capsys):
    code, _, _ = run(["table1", "--sizes", "5"], capsys)
    assert code == EXIT_CONFIG
    code, _, err = run(["table1", "--sizes", ","], capsys)  # no row would be checked
    assert code == EXIT_CONFIG
    assert "--sizes" in err


def test_table1_mismatch_exit_code(monkeypatch, capsys):
    # poison one expected value to prove the comparison actually bites
    from multamp import cli
    poisoned = dict(cli.TABLE1_EXPECTED)
    poisoned[("direct", 2)] = dict(poisoned[("direct", 2)], nu=5)
    monkeypatch.setattr(cli, "TABLE1_EXPECTED", poisoned)
    code, out, _ = run(["table1", "--sizes", "2", "--shots", "5000"], capsys)
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out


# --- baselines ----------------------------------------------------------------

def test_baselines_from_csv_table(tmp_path, capsys):
    table = tmp_path / "alphas.csv"
    table.write_text("0,0.9\n1,0.5\n2,0.25\n3,0.1\n")
    code, out, _ = run(["baselines", "--table", str(table), "--d", "4",
                        "--out", str(tmp_path), "--format", "json"], capsys)
    assert code == EXIT_OK
    rows = json.loads((tmp_path / "baselines.json").read_text())
    assert [row["method"] for row in rows] == [
        "rotation", "comparator", "multiplicative-direct", "multiplicative-controlled"]
    code, _, _ = run(["baselines", "--d", "4"], capsys)
    assert code == EXIT_CONFIG
    code, _, _ = run(["baselines", "--table", str(tmp_path / "nope.csv"),
                      "--d", "4"], capsys)
    assert code == EXIT_CONFIG
    for name, text in [("nan.csv", "0,0.9\n1,nan\n2,0.25\n3,0.1\n"),
                       ("nan.json", "[0.9, NaN, 0.25, 0.1]")]:
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run(["baselines", "--table", str(bad), "--d", "4"], capsys)
        assert code == EXIT_CONFIG
        assert "[0, 1]" in err and "norm=" not in out
